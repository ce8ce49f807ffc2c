"""Checkpoint/resume for the async coordinator.

The server, model, strategy, counters and history go through the shared
core of :mod:`repro.fl.checkpoint` (:func:`~repro.fl.checkpoint.save_run`
/ :func:`~repro.fl.checkpoint.restore_run`), exactly as for the
synchronous engine.  The extra state here is the event loop itself: the
virtual clock, the dispatch sequence counter, the registry's saved
per-client RNG stream positions, and every in-flight
:class:`~repro.federation.coordinator.PendingUpload` *including its
already-computed update* — local work done before the checkpoint is never
re-executed, so a resumed run replays bit-exactly.

Checkpoints are written at flush boundaries (the arrival buffer is empty
then), but in-flight uploads dispatched against earlier versions are part
of the picture and are fully persisted.

Version 2 adds the unreliable-network layer (:mod:`repro.network`): every
event's delivery id / kind / attempt count, the delivered and revoked id
sets, the since-flush delivery accounting, the arrival-trace position,
and a fingerprint of the active :class:`~repro.network.plan.NetworkPlan`
(validated on load — resuming under a different plan would silently
change the chaos pattern).  Duplicate copies and lease events carry no
payload, so persisting a chaotic run stores each update exactly once.
Version 1 checkpoints still load: every added field defaults to the
perfect-wire value.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..fl.checkpoint import (
    STATE_SEP,
    flatten_state,
    read_meta,
    restore_run,
    save_run,
    unflatten_state,
)
from ..fl.state import ClientUpdate
from .coordinator import AsyncCoordinator, FlushEvent, FlushTally, PendingUpload

#: Bumped when the on-disk coordinator layout changes incompatibly.
#: Version 2 added network delivery state; version 1 loads with defaults.
PERSIST_VERSION = 2
_LOADABLE_VERSIONS = (1, 2)


def _plan_fingerprint(plan) -> Optional[Dict[str, Any]]:
    """JSON-normalised view of a network plan for checkpoint validation."""
    if plan is None:
        return None
    return json.loads(json.dumps(dataclasses.asdict(plan)))


#: PendingUpload fields stored as meta scalars; the update's arrays are
#: stored apart, and the delivery-trace fields do not survive a restart
#: (a restored delivery stays untraced).
_EVENT_FIELDS = (
    "client_id",
    "dispatch_version",
    "dispatch_time",
    "arrival_time",
    "delivery_id",
    "kind",
    "attempts",
    "duplicate",
    "lost",
)
_UPDATE_FIELDS = ("num_samples", "num_steps", "sim_time", "wall_time")


def _pending_scalars(pending: PendingUpload) -> Dict[str, Any]:
    entry = {name: getattr(pending, name) for name in _EVENT_FIELDS}
    entry["has_update"] = pending.update is not None
    if pending.update is not None:
        entry.update({name: getattr(pending.update, name) for name in _UPDATE_FIELDS})
    return entry


def save_coordinator(coordinator: AsyncCoordinator, directory) -> Path:
    """Persist a coordinator's complete state at a flush boundary."""
    arrays: Dict[str, np.ndarray] = {}
    events_meta: List[Dict[str, Any]] = []

    # In-flight uploads: heap entries first (in heap-array order — the heap
    # invariant is rebuilt on load), then any buffered arrivals.  Payload
    # arrays exist only for events that carry one (duplicate copies and
    # lease events do not), so each update is stored exactly once.
    queued = [(seq, pending) for _, seq, pending in coordinator._events]
    queued += [(-1, pending) for pending in coordinator._buffer]
    for index, (seq, pending) in enumerate(queued):
        entry = _pending_scalars(pending)
        entry["seq"] = seq
        entry["buffered"] = seq < 0
        events_meta.append(entry)
        if pending.update is None:
            continue
        prefix = f"event{STATE_SEP}{index}{STATE_SEP}"
        arrays[prefix + "delta"] = pending.update.delta
        extras_arrays: Dict[str, np.ndarray] = {}
        extras_scalars: Dict[str, Any] = {}
        flatten_state(pending.update.extras, "extras", extras_arrays, extras_scalars)
        for key, value in extras_arrays.items():
            arrays[prefix + key] = value
        entry["extras_scalars"] = extras_scalars

    meta = {
        "persist_version": PERSIST_VERSION,
        "population": len(coordinator.registry),
        "clock": coordinator._clock,
        "seq": coordinator._seq,
        "last_flush_clock": coordinator._last_flush_clock,
        "network_plan": _plan_fingerprint(coordinator.network),
        "pending_ids": sorted(coordinator._pending_ids),
        "delivery_seq": coordinator._delivery_seq,
        "delivered": sorted(coordinator._delivered),
        "revoked": sorted(coordinator._revoked),
        "trace_pos": coordinator._trace_pos,
        **{
            f"{name}_since_flush": value
            for name, value in vars(coordinator._since_flush).items()
        },
        "events": events_meta,
        "rng_states": {
            "coordinator": coordinator.rng.bit_generator.state,
            "clients": {
                str(cid): st for cid, st in coordinator.registry._rng_states.items()
            },
        },
        "flush_log": [vars(event) for event in coordinator.flush_log],
    }
    return save_run(coordinator, directory, "async", arrays, meta)


def load_coordinator(coordinator: AsyncCoordinator, directory) -> int:
    """Restore a checkpoint into ``coordinator``; returns completed rounds.

    The coordinator must be constructed identically to the checkpointed
    one (same registry parameters, strategy type, cohort/buffer sizes,
    seed); everything mutable is overwritten.
    """
    meta = read_meta(directory, "async")
    if meta.get("persist_version") not in _LOADABLE_VERSIONS:
        raise ValueError(
            f"checkpoint persist_version {meta.get('persist_version')} not in "
            f"{_LOADABLE_VERSIONS}"
        )
    if meta["population"] != len(coordinator.registry):
        raise ValueError(
            f"checkpoint has population {meta['population']}, "
            f"registry has {len(coordinator.registry)}"
        )
    saved_plan = meta.get("network_plan")
    if saved_plan != _plan_fingerprint(coordinator.network):
        raise ValueError(
            "checkpoint was written under a different network plan; resuming "
            "would replay a different chaos pattern (saved "
            f"{saved_plan!r}, coordinator has "
            f"{_plan_fingerprint(coordinator.network)!r})"
        )
    groups = restore_run(coordinator, directory, meta)

    coordinator.rng.bit_generator.state = meta["rng_states"]["coordinator"]
    coordinator.registry.reset()
    coordinator.registry._rng_states.update(
        {int(cid): st for cid, st in meta["rng_states"]["clients"].items()}
    )

    event_arrays: Dict[int, Dict[str, np.ndarray]] = {}
    for key, value in groups.get("event", {}).items():
        index, sub = key.split(STATE_SEP, 1)
        event_arrays.setdefault(int(index), {})[sub] = value

    coordinator._events = []
    coordinator._buffer = []
    coordinator._pending_ids = set()
    for index, entry in enumerate(meta["events"]):
        update = None
        if entry.get("has_update", True):
            per_event = event_arrays.get(index, {})
            extras_flat: Dict[str, Any] = {
                key: value for key, value in per_event.items() if key != "delta"
            }
            extras_flat.update(entry.get("extras_scalars", {}))
            extras = unflatten_state(extras_flat).get("extras", {})
            update = ClientUpdate(
                client_id=entry["client_id"],
                delta=per_event["delta"].copy(),
                extras=extras,
                **{name: entry[name] for name in _UPDATE_FIELDS},
            )
        # v1 entries predate the delivery fields, which then keep their defaults.
        pending = PendingUpload(
            update=update, **{name: entry[name] for name in _EVENT_FIELDS if name in entry}
        )
        if entry["buffered"]:
            coordinator._buffer.append(pending)
        else:
            coordinator._events.append((pending.arrival_time, int(entry["seq"]), pending))
        coordinator._pending_ids.add(pending.client_id)
    heapq.heapify(coordinator._events)
    if "pending_ids" in meta:
        # v2: the slot pool is stored explicitly — a client whose upload was
        # delivered and flushed may still have a duplicate copy or a lease
        # event in the heap without holding a slot, so it cannot be
        # reconstructed from the events alone.
        coordinator._pending_ids = {int(cid) for cid in meta["pending_ids"]}

    coordinator._clock = float(meta["clock"])
    coordinator._seq = int(meta["seq"])
    coordinator._last_flush_clock = float(meta["last_flush_clock"])
    # Delivery-semantics state (v1 checkpoints predate the network layer;
    # every field defaults to the pristine value).
    coordinator._delivery_seq = int(meta.get("delivery_seq", 0))
    coordinator._delivered = {int(d) for d in meta.get("delivered", [])}
    coordinator._revoked = {int(d) for d in meta.get("revoked", [])}
    coordinator._trace_pos = int(meta.get("trace_pos", 0))
    tally = {
        f.name: meta[f"{f.name}_since_flush"]
        for f in dataclasses.fields(FlushTally)
        if f"{f.name}_since_flush" in meta
    }
    for name in ("quarantined", "retried"):  # JSON object keys are strings
        tally[name] = {int(cid): value for cid, value in tally.get(name, {}).items()}
    coordinator._since_flush = FlushTally(**tally)
    coordinator.flush_log = [
        FlushEvent(
            **{
                **item,
                "staleness": {int(k): v for k, v in item["staleness"].items()},
                "weights": {int(k): v for k, v in item["weights"].items()},
            }
        )
        for item in meta["flush_log"]
    ]
    return coordinator.server.state.round
