"""Event-driven semi-asynchronous federation coordinator.

:class:`AsyncCoordinator` runs FedBuff-style buffered aggregation over a
:class:`~repro.federation.registry.ClientRegistry` on a deterministic
*virtual-time* event loop:

1. **Dispatch** — keep a cohort of clients in flight: select from the
   active population (any :class:`~repro.fl.sampling.ParticipationScheme`,
   by default streaming reservoir sampling), materialize each selected
   client, run its K local steps against the *current* server version,
   release it, and schedule its upload to arrive ``sim_time`` virtual
   seconds later (drawn from the client's speed tier via the cost model).
   Local training is executed eagerly at dispatch because it depends only
   on the dispatch-version parameters, which
   :meth:`~repro.fl.state.ServerState.advance` never mutates in place.
2. **Arrive** — pop the earliest upload off the event heap (ties broken
   by dispatch sequence, so the order is a pure function of the seed) and
   append it to the server buffer.
3. **Flush** — every ``buffer_size`` arrivals, discount each buffered
   update by its staleness — ``weight = (1 + τ)^(-staleness_power)``
   where τ = server versions elapsed since dispatch — run the shared
   degradation gate (:func:`~repro.fl.degradation.validate_updates`,
   ``max_staleness``, ``min_quorum``), and apply the strategy's usual
   :meth:`~repro.algorithms.base.Strategy.aggregate` /
   :meth:`~repro.algorithms.base.Strategy.post_round` step.  One flush is
   one server round/version.

Determinism contract (tested): same registry + seed ⇒ byte-identical
event order, staleness weights, final parameters, and runrecord (modulo
the isolated ``timing`` key).  With ``buffer_size == cohort_size`` every
dispatched client arrives before its version's flush, all staleness
weights are exactly 1.0, and the coordinator is **bit-identical** to the
synchronous :class:`~repro.fl.simulation.FederatedSimulation` oracle.

Unreliable networks (``network=``): a seeded, *active*
:class:`~repro.network.plan.NetworkPlan` interposes a
:class:`~repro.network.model.NetworkModel` on the event heap.  Every
dispatch becomes a **delivery** with a unique id; the wire may drop it
(client-side retries under the shared
:class:`~repro.network.retry.RetryPolicy`, loss after exhaustion),
duplicate it (the server deduplicates at-least-once copies *before* the
buffer, so FedBuff staleness is computed from the original dispatch
version), delay it per direction, or hold it through a partition episode.
``lease_timeout`` adds server-side leases: a delivery missing its lease
is revoked (:data:`~repro.fl.degradation.REASON_LOST`) and the slot
re-dispatched; copies arriving after revocation are quarantined as
:data:`~repro.fl.degradation.REASON_LATE`.  An **inert** plan
(``NetworkPlan.none()``) bypasses all of this — the event loop is
bit-identical to passing ``network=None``.  The ``_delivered``/
``_revoked`` id sets grow with total dispatches (rounds x cohort), never
with population, so the O(cohort) memory contract is unaffected.

Delivery tracing: while telemetry is enabled, every delivery's span tree
(queue wait, compute, network, buffer) and each flush's latency summary
are written to the telemetry tracer at the delivery's terminal event
(:mod:`repro.federation.tracing`); with telemetry off no span is made.

Open-loop traffic (``arrival_trace=``): instead of closed-loop cohort
top-up, replay an :class:`~repro.network.traffic.ArrivalTrace` of
``(time, count)`` bursts — Poisson bursts, flash crowds — dispatching
clients when the trace says so; after trace exhaustion the loop falls
back to closed-loop dispatch so the requested rounds always complete.

Memory contract (tested): per-flush cost is O(cohort + buffer), never
O(population), expulsions included (``Strategy.active_clients`` is an
O(|expelled|) view of the registry's ``range``) — see docs/SCALING.md.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import Strategy
from ..data.dataset import TensorDataset
from ..fl.degradation import (
    REASON_LATE,
    REASON_LOST,
    REASON_STALE,
    DegradationPolicy,
)
from ..fl.engine import RoundEngine, SimulationResult
from ..fl.history import RoundRecord
from ..fl.metrics import evaluate
from ..fl.sampling import ParticipationScheme, ReservoirSampling
from ..fl.state import ClientUpdate
from ..fl.timing import CostModel
from ..network.model import NetworkModel
from ..network.plan import NetworkPlan
from ..network.traffic import ArrivalTrace
from ..telemetry import get_telemetry
from .registry import ClientRegistry
from .tracing import OUTCOME_FLUSHED, trace_delivery, trace_flush


@dataclass
class PendingUpload:
    """One event travelling through virtual time.

    On the perfect-wire path this is always a ``deliver`` event carrying
    the client's computed update.  With an active network plan it may
    also be a duplicate copy (``duplicate=True``; never buffered, so it
    carries no payload) or a server-side ``lease`` event — the moment the
    server either learns a retry-exhausted delivery is lost
    (``lost=True``) or revokes a delivery that outlived its lease.
    """

    client_id: int
    dispatch_version: int  # server round the client trained against
    dispatch_time: float  # virtual seconds when local work started
    arrival_time: float  # virtual seconds when the event fires
    update: Optional[ClientUpdate]  # computed eagerly at dispatch
    delivery_id: int = -1  # idempotency key; -1 on the perfect-wire path
    kind: str = "deliver"  # "deliver" | "lease"
    attempts: int = 1  # send attempts the wire charged this delivery
    duplicate: bool = False  # an at-least-once copy, not the original
    lost: bool = False  # lease event of a retry-exhausted delivery
    # For the delivery trace: when local work began (None = untraced, as
    # for events restored from a checkpoint) and whether a partition held it.
    compute_start: Optional[float] = None
    held_by_partition: bool = False


@dataclass
class FlushEvent:
    """Audit record of one buffered aggregation (for determinism tests)."""

    version: int  # server version the flush produced
    virtual_time: float
    arrivals: List[int]  # client ids in flushed order
    staleness: Dict[int, int]  # client -> τ
    weights: Dict[int, float]  # client -> staleness discount
    stale_dropped: List[int] = field(default_factory=list)


@dataclass
class FlushTally:
    """What happened to dispatches between two flushes; feeds the RoundRecord.

    Bytes are charged at dispatch by the engines' one rule: every dispatch
    costs one downlink copy of the global parameters, every send attempt
    (retries and duplicate copies included) one uplink payload.  Beside
    ``abandoned`` and the bytes, everything stays empty on the perfect wire.
    """

    abandoned: List[int] = field(default_factory=list)  # straggler deadline
    quarantined: Dict[int, str] = field(default_factory=dict)  # lease lost / late
    dropped: List[int] = field(default_factory=list)  # retry-exhausted
    retried: Dict[int, int] = field(default_factory=dict)  # client -> retries
    duplicated: List[int] = field(default_factory=list)  # deduplicated copies
    deliveries: Dict[str, int] = field(default_factory=dict)  # outcome -> count
    uplink_bytes: int = 0
    downlink_bytes: int = 0


class AsyncCoordinator(RoundEngine):
    """Buffered semi-async federated training over a client registry.

    The run lifecycle (resume, divergence, checkpoint and evaluation
    cadence, round records) is :class:`~repro.fl.engine.RoundEngine`'s,
    shared with the synchronous simulation; one flush is one round.

    Parameters
    ----------
    registry:
        The virtual client population.
    strategy:
        Any :class:`~repro.algorithms.base.Strategy` (TACO / Scaffold /
        STEM client hooks and aggregation run unchanged).
    test_set:
        Held-out evaluation shard (``registry.test_set(n)``).
    cohort_size:
        Target number of clients concurrently in flight.
    buffer_size:
        Aggregate after this many arrivals (defaults to ``cohort_size``,
        the synchronous-equivalent setting).
    participation:
        Selection scheme over the active population; defaults to
        streaming reservoir sampling of ``cohort_size``.
    staleness_power:
        Exponent ``a`` of the ``(1 + τ)^(-a)`` staleness discount.
    degradation:
        Shared degradation policy: ``round_deadline`` abandons stragglers
        at dispatch, ``max_staleness`` drops over-stale arrivals at flush,
        ``over_selection``/``min_quorum``/quarantine as in the sync loop.
    network:
        Optional :class:`~repro.network.plan.NetworkPlan`; an inert plan
        (``NetworkPlan.none()``) is treated exactly like ``None``.
    arrival_trace:
        Optional open-loop :class:`~repro.network.traffic.ArrivalTrace`
        replacing closed-loop cohort top-up while it lasts.
    """

    aggregate_span = "federation.flush"

    def __init__(
        self,
        registry: ClientRegistry,
        strategy: Strategy,
        test_set: TensorDataset,
        cohort_size: int = 20,
        buffer_size: Optional[int] = None,
        participation: Optional[ParticipationScheme] = None,
        global_lr: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
        degradation: Optional[DegradationPolicy] = None,
        staleness_power: float = 0.5,
        eval_every: int = 1,
        seed: int = 0,
        model=None,
        network: Optional[NetworkPlan] = None,
        arrival_trace: Optional[ArrivalTrace] = None,
    ) -> None:
        if cohort_size < 1:
            raise ValueError(f"cohort_size must be >= 1, got {cohort_size}")
        if buffer_size is not None and buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        if staleness_power < 0:
            raise ValueError(f"staleness_power must be >= 0, got {staleness_power}")
        super().__init__(
            model if model is not None else registry.make_model(),
            strategy,
            test_set,
            num_clients=len(registry),
            global_lr=global_lr,
            cost_model=cost_model,
            degradation=degradation,
            eval_every=eval_every,
            seed=seed,
        )
        self.registry = registry
        self.cohort_size = int(cohort_size)
        self.buffer_size = int(buffer_size) if buffer_size is not None else int(cohort_size)
        self.participation = participation or ReservoirSampling(self.cohort_size)
        self.staleness_power = float(staleness_power)

        # An inert plan is indistinguishable from no plan at all: the
        # delivery machinery below is bypassed entirely (bit-identity).
        self.network = network if network is not None and network.active else None
        self._network_model = (
            NetworkModel(self.network) if self.network is not None else None
        )
        self.arrival_trace = arrival_trace

        self.flush_log: List[FlushEvent] = []

        # Virtual-time event loop state.
        self._events: List[Tuple[float, int, PendingUpload]] = []  # heap
        self._buffer: List[PendingUpload] = []
        self._pending_ids: set = set()  # in flight or buffered
        self._clock = 0.0
        self._seq = 0  # dispatch sequence; the deterministic heap tie-break
        self._last_flush_clock = 0.0
        self._since_flush = FlushTally()

        # Delivery-semantics state (only touched under an active plan).
        self._delivery_seq = 0  # per-dispatch idempotency key
        self._delivered: set = set()  # delivery ids accepted into the buffer
        self._revoked: set = set()  # delivery ids the server gave up on
        self._trace_pos = 0  # next unplayed burst of arrival_trace

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _select(
        self, active: Sequence[int], want: int, open_loop: bool = False
    ) -> List[int]:
        """Pick up to ``want`` non-pending clients from ``active``."""
        telemetry = get_telemetry()
        with telemetry.span("federation.select", round=self.server.state.round, want=want):
            chosen = self.participation.select(active, self.server.state.round, self.rng)
        fresh = [cid for cid in chosen if cid not in self._pending_ids]
        collisions = len(chosen) - len(fresh)
        if open_loop and len(fresh) < want:
            # An open-loop burst can exceed one selection's yield; redraw a
            # bounded number of times (each draw consumes the selection RNG,
            # so the result is still a pure function of the seed).
            seen = set(fresh)
            for _ in range(8):
                extra = self.participation.select(
                    active, self.server.state.round, self.rng
                )
                added = [
                    cid
                    for cid in extra
                    if cid not in self._pending_ids and cid not in seen
                ]
                if not added:
                    break
                fresh.extend(added)
                seen.update(added)
                if len(fresh) >= want:
                    break
        if collisions:
            telemetry.counter("federation.collisions").add(collisions)
        return fresh[:want]

    def _dispatch(self, want: Optional[int] = None) -> int:
        """Enqueue fresh clients: cohort top-up, or an open-loop burst.

        With ``want=None`` (closed loop) the in-flight pool is topped back
        up to the cohort target; an explicit ``want`` dispatches that many
        clients regardless of pool occupancy (trace replay).  Selected
        clients run their K local steps *now*, against the current server
        version; only the upload's arrival is deferred.  Returns the
        number of clients actually enqueued.
        """
        open_loop = want is not None
        if want is None:
            target = self.cohort_size
            if self.degradation is not None:
                target += self.degradation.extra_selections(self.cohort_size)
            want = target - len(self._pending_ids)
        if want <= 0:
            return 0

        telemetry = get_telemetry()
        state = self.server.state
        active = self.strategy.active_clients(state, self.registry.ids())
        if not len(active):
            raise RuntimeError("no active clients left to dispatch (all expelled)")
        selected = self._select(active, want, open_loop=open_loop)
        if not selected:
            return 0

        deadline = self.degradation.round_deadline if self.degradation is not None else None
        enqueued = 0
        with telemetry.span(
            "federation.dispatch", round=state.round, clients=len(selected)
        ):
            broadcast = self.strategy.broadcast(state)
            global_params = state.global_params
            self._since_flush.downlink_bytes += global_params.nbytes * len(selected)
            for client_id in selected:
                payload = self.strategy.client_payload(client_id, state, broadcast)
                client = self.registry.materialize(client_id)
                update = client.local_round(
                    self.model, self.strategy, global_params, payload, self.cost_model
                )
                self.registry.release(client)
                if deadline is not None and update.sim_time > deadline:
                    # Straggler abandonment: the server will not wait for
                    # this upload; the device's work is lost, never sent.
                    self._since_flush.abandoned.append(client_id)
                    if telemetry.enabled:
                        end = self._clock + update.sim_time
                        self._trace(
                            telemetry, client_id, state.round, self._clock, end,
                            arrival_time=None, end_time=end, outcome="abandoned",
                        )
                    continue
                if self._network_model is not None:
                    enqueued += self._dispatch_networked(client_id, state.round, update)
                    continue
                self._since_flush.uplink_bytes += update.delta.nbytes
                self._push_event(
                    client_id, state.round, self._clock + update.sim_time, update,
                    delivery_id=-1, compute_start=self._clock,
                )
                self._pending_ids.add(client_id)
                enqueued += 1
        telemetry.counter("federation.dispatched").add(enqueued)
        if telemetry.enabled:
            telemetry.gauge("federation.inflight").set(len(self._pending_ids))
        return enqueued

    # ------------------------------------------------------------------
    # Events, traces, and delivery semantics (the last under an active
    # network plan only)
    # ------------------------------------------------------------------
    def _count_delivery(self, outcome: str, count: int = 1) -> None:
        self._since_flush.deliveries[outcome] = (
            self._since_flush.deliveries.get(outcome, 0) + count
        )

    def _trace(
        self,
        telemetry,
        client_id: int,
        version: int,
        compute_start: float,
        compute_end: float,
        **terminal,
    ) -> None:
        """Write one delivery dispatched at the current clock to the trace."""
        trace_delivery(
            telemetry,
            client_id=client_id,
            version=version,
            tier=self.registry.descriptor(client_id).speed_tier,
            dispatch_time=self._clock,
            compute_start=compute_start,
            compute_end=compute_end,
            **terminal,
        )

    def _trace_pending(
        self, telemetry, pending: PendingUpload, end_time: float, outcome: str, **extra
    ) -> Dict[str, float]:
        """Write the span tree of a delivery that reached the server."""
        return trace_delivery(
            telemetry,
            client_id=pending.client_id,
            version=pending.dispatch_version,
            tier=self.registry.descriptor(pending.client_id).speed_tier,
            dispatch_time=pending.dispatch_time,
            compute_start=pending.compute_start,
            compute_end=pending.compute_start + pending.update.sim_time,
            arrival_time=pending.arrival_time,
            end_time=end_time,
            outcome=outcome,
            attempts=pending.attempts,
            held_by_partition=pending.held_by_partition,
            **extra,
        )

    def _push_event(
        self,
        client_id: int,
        version: int,
        arrival_time: float,
        update: Optional[ClientUpdate],
        delivery_id: int,
        kind: str = "deliver",
        attempts: int = 1,
        duplicate: bool = False,
        lost: bool = False,
        compute_start: Optional[float] = None,
        held_by_partition: bool = False,
    ) -> None:
        pending = PendingUpload(
            client_id=client_id,
            dispatch_version=version,
            dispatch_time=self._clock,
            arrival_time=arrival_time,
            update=update,
            delivery_id=delivery_id,
            kind=kind,
            attempts=attempts,
            duplicate=duplicate,
            lost=lost,
            compute_start=compute_start,
            held_by_partition=held_by_partition,
        )
        heapq.heappush(self._events, (arrival_time, self._seq, pending))
        self._seq += 1

    def _dispatch_networked(
        self, client_id: int, version: int, update: ClientUpdate
    ) -> int:
        """Resolve one dispatch through the network model and enqueue it."""
        telemetry = get_telemetry()
        plan = self.network
        delivery_id = self._delivery_seq
        self._delivery_seq += 1
        outcome = self._network_model.outcome(
            delivery_id, client_id, self._clock, update.sim_time
        )
        self._count_delivery("dispatched")
        payload_bytes = int(update.delta.nbytes)
        # Every send attempt burns uplink bytes, even the ones the wire
        # drops: the retries (the attempts after the first) are recorded
        # for a lost upload too.
        retried = outcome.attempts - 1
        self._since_flush.uplink_bytes += payload_bytes * (retried + 1)
        if retried:
            self._since_flush.retried[client_id] = (
                self._since_flush.retried.get(client_id, 0) + retried
            )
            self._count_delivery("retried", retried)

        compute_start = self._clock + outcome.decision.downlink_delay
        if outcome.lost:
            # The upload never arrives.  The server learns the slot is free
            # at lease expiry (or, lease-less, at the client's give-up
            # time) — either way a lease event keeps the pool from leaking.
            self._count_delivery("lost")
            learns_at = (
                self._clock + plan.lease_timeout
                if plan.lease_timeout is not None
                else outcome.give_up_time
            )
            if telemetry.enabled:
                self._trace(
                    telemetry, client_id, version, compute_start,
                    compute_start + update.sim_time, arrival_time=None,
                    end_time=learns_at, outcome="lost", attempts=outcome.attempts,
                )
            self._push_event(
                client_id, version, learns_at, None, delivery_id,
                kind="lease", lost=True,
            )
            self._pending_ids.add(client_id)
            return 1

        if outcome.held_by_partition:
            self._count_delivery("partition_held")

        self._push_event(
            client_id, version, outcome.arrival_time, update, delivery_id,
            attempts=outcome.attempts, compute_start=compute_start,
            held_by_partition=outcome.held_by_partition,
        )
        if outcome.duplicate_time is not None:
            # The at-least-once copy: arrives later, is never buffered, so
            # it needs no payload — only the id the server deduplicates on.
            self._since_flush.uplink_bytes += payload_bytes
            self._count_delivery("duplicate_copies")
            self._push_event(
                client_id, version, outcome.duplicate_time, None, delivery_id,
                duplicate=True,
            )
        if plan.lease_timeout is not None:
            self._push_event(
                client_id, version, self._clock + plan.lease_timeout, None,
                delivery_id, kind="lease",
            )
        if telemetry.enabled:
            telemetry.histogram("network.delivery_delay").observe(
                outcome.arrival_time - self._clock - update.sim_time
            )
        self._pending_ids.add(client_id)
        return 1

    def _absorb(self, pending: PendingUpload) -> bool:
        """Process one popped event; True when it entered the buffer.

        This is the server side of the delivery semantics: leases revoke
        undelivered dispatches, delivery ids deduplicate at-least-once
        copies *before* the FedBuff buffer, and post-revocation arrivals
        are quarantined as late.
        """
        if pending.delivery_id < 0:  # perfect-wire path
            self._buffer.append(pending)
            return True
        if pending.kind == "lease":
            if (
                pending.delivery_id in self._delivered
                or pending.delivery_id in self._revoked
            ):
                return False  # delivered in time (or already revoked)
            self._revoked.add(pending.delivery_id)
            self._pending_ids.discard(pending.client_id)
            if pending.lost:
                # Retry-exhausted: the upload is gone for good — account it
                # with the crashes/retry-exhausted drops.
                self._since_flush.dropped.append(pending.client_id)
            else:
                # Lease expiry: the server revokes a delivery that may still
                # arrive (and will then be rejected as late).
                self._since_flush.quarantined[pending.client_id] = REASON_LOST
                self._count_delivery("lease_expired")
            return False
        if pending.delivery_id in self._revoked:
            if not pending.duplicate:
                self._since_flush.quarantined[pending.client_id] = REASON_LATE
                telemetry = get_telemetry()
                if telemetry.enabled and pending.compute_start is not None:
                    self._trace_pending(telemetry, pending, pending.arrival_time, "late")
            self._count_delivery("late")
            return False
        if pending.delivery_id in self._delivered:
            # At-least-once copy of an already-accepted delivery: idempotent
            # aggregation means it never reaches the buffer.
            self._since_flush.duplicated.append(pending.client_id)
            self._count_delivery("deduplicated")
            return False
        self._delivered.add(pending.delivery_id)
        self._count_delivery("delivered")
        self._buffer.append(pending)
        return True

    # ------------------------------------------------------------------
    # Open-loop trace replay
    # ------------------------------------------------------------------
    def _next_burst_time(self) -> Optional[float]:
        if self.arrival_trace is None:
            return None
        events = self.arrival_trace.events
        if self._trace_pos >= len(events):
            return None
        return events[self._trace_pos][0]

    def _pump_trace(self) -> Optional[float]:
        """Dispatch every burst due before the next heap event.

        The clock jumps forward to each burst's time (arrivals already on
        the heap that are earlier stay ahead of it — the pop loop checks
        the next burst time).  Returns the next unplayed burst time.
        """
        events = self.arrival_trace.events
        while self._trace_pos < len(events):
            burst_time, count = events[self._trace_pos]
            if self._events and self._events[0][0] < burst_time:
                break
            self._clock = max(self._clock, burst_time)
            self._trace_pos += 1
            self._dispatch(want=count)
        return self._next_burst_time()

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def _flush(self) -> RoundRecord:
        """Aggregate the buffer into one server round."""
        telemetry = get_telemetry()
        round_index = self.server.state.round
        flush_started = time.perf_counter()
        self._begin_round(round_index)

        # Flush in (dispatch version, client id) order: within one version
        # this is the synchronous loop's sorted-participants order, which
        # is what makes the B == cohort case bit-identical to the oracle.
        batch = sorted(self._buffer, key=lambda p: (p.dispatch_version, p.client_id))
        self._buffer = []
        for pending in batch:
            self._pending_ids.discard(pending.client_id)

        staleness = {p.client_id: round_index - p.dispatch_version for p in batch}
        max_staleness = (
            self.degradation.max_staleness if self.degradation is not None else None
        )
        stale_dropped: List[int] = []
        weights: Dict[int, float] = {}
        updates: List[ClientUpdate] = []
        quarantined: Dict[int, str] = {}
        for pending in batch:
            tau = staleness[pending.client_id]
            if max_staleness is not None and tau > max_staleness:
                stale_dropped.append(pending.client_id)
                quarantined[pending.client_id] = REASON_STALE
                continue
            weight = (1.0 + tau) ** (-self.staleness_power) if tau else 1.0
            weights[pending.client_id] = weight
            updates.append(pending.update.scaled(weight))
            if telemetry.enabled:
                telemetry.histogram("federation.staleness").observe(float(tau))

        updates, gate_quarantined, skipped = self._aggregate(round_index, updates)
        quarantined.update(gate_quarantined)

        if telemetry.enabled:
            flushed = []  # stage durations of the traced, aggregated deliveries
            for pending in batch:
                if pending.compute_start is None:
                    continue  # restored from a checkpoint: untraced
                reason = quarantined.get(pending.client_id)
                if reason is None:
                    label = OUTCOME_FLUSHED
                else:
                    label = "stale" if reason == REASON_STALE else "quarantined"
                stages = self._trace_pending(
                    telemetry, pending, self._clock, label, flush_version=round_index
                )
                if reason is None:
                    flushed.append(stages)
            trace_flush(telemetry, round_index, self._clock, flushed, skipped=skipped)

        round_sim = self._clock - self._last_flush_clock
        self._last_flush_clock = self._clock
        self._cumulative_sim_time = self._clock
        if telemetry.enabled:
            telemetry.gauge("federation.virtual_time").set(self._clock)
        metrics = self._evaluate_round(round_index)

        # Network delivery semantics accumulated since the last flush:
        # lease revocations and late arrivals quarantine, retry-exhausted
        # losses drop (all empty on the perfect-wire path).
        quarantined.update(self._since_flush.quarantined)
        record = self._close_round(
            round_index,
            flush_started,
            updates,
            skipped,
            metrics,
            round_sim,
            participating=[p.client_id for p in batch],
            dropped=sorted(self._since_flush.dropped),
            quarantined=quarantined,
            stragglers=list(self._since_flush.abandoned),
            retries=dict(sorted(self._since_flush.retried.items())),
            duplicated=sorted(self._since_flush.duplicated),
            deliveries=dict(sorted(self._since_flush.deliveries.items())),
            uplink_bytes=self._since_flush.uplink_bytes,
            downlink_bytes=self._since_flush.downlink_bytes,
        )
        self._since_flush = FlushTally()
        self.flush_log.append(
            FlushEvent(
                version=round_index,
                virtual_time=self._clock,
                arrivals=[p.client_id for p in batch],
                staleness=staleness,
                weights=weights,
                stale_dropped=stale_dropped,
            )
        )
        return record

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        resume_from=None,
    ) -> SimulationResult:
        """Run ``rounds`` buffered aggregations (server versions).

        ``checkpoint_every``/``checkpoint_dir``/``resume_from`` persist and
        restore the full coordinator state at flush boundaries via
        :mod:`repro.federation.persist`, bit-exact with an uninterrupted
        run.
        """
        from . import persist  # deferred; persist imports this module's types

        return self._run(
            rounds,
            checkpoint_every,
            checkpoint_dir,
            resume_from,
            save=persist.save_coordinator,
            load=persist.load_coordinator,
        )

    def _start_fresh(self) -> None:
        super()._start_fresh()
        self.registry.reset()

    def _evaluate(self, params: np.ndarray):
        self.model.load_vector(params)
        return evaluate(self.model, self.test_set)

    def _step(self) -> Optional[RoundRecord]:
        """Dispatch, deliver, and flush once the buffer is full (or drained)."""
        next_burst = self._next_burst_time()
        if next_burst is not None:
            # Open-loop replay: the trace decides when clients show up.
            next_burst = self._pump_trace()
        elif len(self._buffer) < self.buffer_size:
            self._dispatch()
            # A deadline can abandon an entire dispatch; redraw a few
            # cohorts (each consumes the selection RNG, so this stays
            # deterministic) before declaring the loop stalled.
            for _ in range(32):
                if self._events or self._buffer:
                    break
                self._dispatch()
            else:
                raise RuntimeError(
                    "event loop stalled: every dispatched client was "
                    "abandoned (round_deadline too tight for the "
                    "population's speed tiers)"
                )
        while self._events and len(self._buffer) < self.buffer_size:
            if next_burst is not None and self._events[0][0] > next_burst:
                break  # a trace burst is due before the next event
            arrival_time, _, pending = heapq.heappop(self._events)
            self._clock = arrival_time
            self._absorb(pending)
        if len(self._buffer) >= self.buffer_size or (
            not self._events and next_burst is None
        ):
            return self._flush()
        return None

    # ------------------------------------------------------------------
    @property
    def virtual_time(self) -> float:
        """Current virtual clock (seconds of simulated federation time)."""
        return self._clock

    @property
    def in_flight(self) -> int:
        """Clients currently dispatched or buffered."""
        return len(self._pending_ids)
