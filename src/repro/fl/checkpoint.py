"""Checkpointing: persist and restore training runs.

Long federated runs (the paper's T = 200, K = 1000 settings) need restart
capability.  Checkpoints are plain ``.npz`` archives (arrays) and ``.json``
metadata (round, history), so they stay portable and diff-able.

:func:`save_run` / :func:`restore_run` checkpoint a whole run of either
engine: its :meth:`~repro.fl.engine.RoundEngine.state_dict` (server
vectors, model buffers, strategy state such as control variates, momenta,
TACO alphas and strikes, the simulated-time and evaluation counters) and
its training history.  The parameters are stored once, as the server's
w_t.  Each engine adds its own state on top — :func:`save_simulation` the
RNG streams and guard; ``repro.federation.persist`` the event loop — so a
killed run resumes **bit-exact** at the next round boundary.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict

import numpy as np

from .history import RecoveryEvent, RoundRecord, TrainingHistory


def save_history(history: TrainingHistory, path: str | Path) -> None:
    """Persist a :class:`TrainingHistory` as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "records": [record.to_dict() for record in history.records],
        "recoveries": [asdict(event) for event in history.recoveries],
    }
    path.write_text(json.dumps(payload, indent=2))


def load_history(path: str | Path) -> TrainingHistory:
    """Restore a history saved by :func:`save_history`."""
    payload = json.loads(Path(path).read_text())
    history = TrainingHistory()
    for item in payload["records"]:
        history.append(RoundRecord.from_dict(item))
    history.recoveries = [RecoveryEvent(**item) for item in payload.get("recoveries", [])]
    return history


# ----------------------------------------------------------------------
# Run checkpoints
# ----------------------------------------------------------------------
#: Separator for flattened nested state paths; npz/zip member names accept it
#: and it cannot collide with module-style "/" or "." key characters.
STATE_SEP = "|"

ARRAYS_FILE = "arrays.npz"
META_FILE = "meta.json"
HISTORY_FILE = "history.json"


def flatten_state(
    value: Any, prefix: str, arrays: Dict[str, np.ndarray], scalars: Dict[str, Any]
) -> None:
    """Split nested strategy state into npz-able arrays and JSON scalars."""
    if isinstance(value, np.ndarray):
        arrays[prefix] = value
    elif isinstance(value, (set, frozenset)):
        scalars[prefix] = {"__set__": sorted(value)}
    elif isinstance(value, dict):
        for key, sub in value.items():
            flatten_state(sub, f"{prefix}{STATE_SEP}{key}", arrays, scalars)
    else:
        scalars[prefix] = value


def _group_scalars(scalars: Dict[str, Any], group: str) -> Dict[str, Any]:
    """The scalars :func:`flatten_state` put under ``group``, keyed without it."""
    prefix = f"{group}{STATE_SEP}"
    return {key[len(prefix) :]: value for key, value in scalars.items() if key.startswith(prefix)}


def unflatten_state(flat: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the nested dict produced by ``Strategy.state_dict``."""
    nested: Dict[str, Any] = {}
    for path, value in flat.items():
        parts = path.split(STATE_SEP)
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if isinstance(value, dict) and set(value) == {"__set__"}:
            value = set(value["__set__"])
        node[parts[-1]] = value
    return nested


def save_run(
    engine,
    directory: str | Path,
    kind: str,
    arrays: Dict[str, np.ndarray],
    meta: Dict[str, Any],
) -> Path:
    """Write the engine's state and history, plus its own state.

    The state's groups land in ``arrays.npz`` as ``server|...``,
    ``model|...`` and ``strategy|...`` arrays, its scalars in ``meta.json``.
    ``kind`` names the engine (``"sync"`` or ``"async"``) so the other one
    refuses to resume it; ``arrays`` (``group|name`` keys) and ``meta`` add
    the engine's own state to ``arrays.npz`` and ``meta.json``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    state = engine.state_dict()
    round_index = state["server"]["round"]
    # The round is stamped into arrays.npz too, so a torn write shows.
    core: Dict[str, np.ndarray] = {f"server{STATE_SEP}round": np.asarray(round_index)}
    scalars: Dict[str, Any] = {}
    for group in ("server", "model", "strategy"):
        flatten_state(state.pop(group), group, core, scalars)
    meta = {
        "engine": kind,
        "round": round_index,
        **state,  # the simulated-time and evaluation counters
        "strategy_scalars": _group_scalars(scalars, "strategy"),
        **meta,
    }
    # Stage all three files, then swap each in whole with meta.json last: an
    # interrupted write leaves the previous checkpoint intact, or a torn one
    # that restore_run detects from the round stamped into arrays.npz.
    staged = {
        name: directory / f".{name}.partial" for name in (ARRAYS_FILE, HISTORY_FILE, META_FILE)
    }
    with open(staged[ARRAYS_FILE], "wb") as handle:
        np.savez(handle, **core, **arrays)
    save_history(engine.history, staged[HISTORY_FILE])
    staged[META_FILE].write_text(json.dumps(meta, indent=2))
    for name, path in staged.items():
        os.replace(path, directory / name)
    return directory


def read_meta(directory: str | Path, kind: str) -> Dict[str, Any]:
    """A checkpoint's ``meta.json``, refusing one written by the other engine.

    Checkpoints from before the ``engine`` stamp are told apart by the
    async layout's ``persist_version`` key.
    """
    directory = Path(directory)
    meta = json.loads((directory / META_FILE).read_text())
    found = meta.get("engine", "async" if "persist_version" in meta else "sync")
    if found != kind:
        raise ValueError(
            f"cannot resume the {kind} engine from {directory}: "
            f"it holds a checkpoint of the {found} engine"
        )
    return meta


def restore_run(
    engine, directory: str | Path, meta: Dict[str, Any]
) -> Dict[str, Dict[str, np.ndarray]]:
    """Load the engine's state and history; returns the arrays by group.

    Every array of ``arrays.npz`` is returned under its first key segment
    (``"transport"``, ``"guard"``, ``"event"``, ...) so the engine can
    restore its own state next.  A checkpoint missing part of the state,
    or whose server vectors are of another dtype than the engine's
    (written under the other compute dtype), is refused with a
    ``ValueError`` naming the directory.  The parameter copies older
    checkpoints keep under ``model|`` are ignored: w_t is the server's.
    """
    directory = Path(directory)
    groups: Dict[str, Dict[str, np.ndarray]] = {}
    try:
        with np.load(directory / ARRAYS_FILE) as archive:
            for key in archive.files:
                group, rest = key.split(STATE_SEP, 1)
                groups.setdefault(group, {})[rest] = archive[key]
    except zipfile.BadZipFile as error:
        raise ValueError(f"unreadable checkpoint {directory / ARRAYS_FILE}: {error}") from error
    history = load_history(directory / HISTORY_FILE)
    server = groups.get("server", {})
    if "round" in server and int(server["round"]) != meta["round"]:
        raise ValueError(
            f"torn checkpoint at {directory}: arrays are from round {int(server['round'])}, "
            f"meta.json from round {meta['round']} (a checkpoint write was interrupted)"
        )
    stored = server.get("global_params")
    current = engine.server.state.global_params.dtype
    if stored is not None and stored.dtype != current:
        raise ValueError(
            f"cannot resume from {directory}: its parameters are {stored.dtype}, "
            f"this run computes in {current}"
        )

    try:
        engine.load_state_dict(
            {
                "server": {**server, "round": meta["round"]},
                "model": groups.get("model", {}),
                "strategy": unflatten_state(
                    {**groups.get("strategy", {}), **meta["strategy_scalars"]}
                ),
                "cumulative_sim_time": meta["cumulative_sim_time"],
                "last_evaluated_round": meta["last_evaluated_round"],
            }
        )
    except KeyError as error:
        raise ValueError(f"incomplete checkpoint at {directory}: no {error} entry") from error
    engine.history = history
    return groups


def save_simulation(simulation, directory: str | Path) -> Path:
    """Checkpoint a :class:`~repro.fl.simulation.FederatedSimulation`.

    Adds the RNG streams (engine, clients, transport) and, when a guard is
    attached, the monitor's windows and the recovery ladder with its ring of
    engine states to :func:`save_run`'s ``arrays.npz``, ``meta.json`` and
    ``history.json`` in ``directory``.  Safe to call at any round
    boundary; later checkpoints overwrite earlier ones.
    """
    arrays: Dict[str, np.ndarray] = {}
    rng_states: Dict[str, Any] = {
        "simulation": simulation.rng.bit_generator.state,
        "clients": {
            str(cid): client.sampler.rng.bit_generator.state
            for cid, client in simulation.clients.items()
        },
    }
    if simulation.transport is not None:
        rng_states["transport"] = simulation.transport.rng.bit_generator.state
    meta: Dict[str, Any] = {"num_clients": len(simulation.clients), "rng_states": rng_states}

    if simulation.recovery is not None:
        # A checkpoint taken mid-recovery resumes bit-exactly.
        guard = {
            "recovery": simulation.recovery.state_dict(),
            "monitor": simulation.monitor.state_dict(),
        }
        scalars: Dict[str, Any] = {}
        flatten_state(guard, "guard", arrays, scalars)
        meta["guard_scalars"] = _group_scalars(scalars, "guard")

    return save_run(simulation, directory, "sync", arrays, meta)


def load_simulation(simulation, directory: str | Path) -> int:
    """Restore a checkpoint into ``simulation``; returns completed rounds.

    The simulation must be constructed identically to the checkpointed one
    (same clients, strategy type, seeds); everything mutable — the engine
    state, RNG streams, guard, history — is overwritten so the next round
    replays exactly as it would have in the uninterrupted run.
    """
    meta = read_meta(directory, "sync")
    if meta["num_clients"] != len(simulation.clients):
        raise ValueError(
            f"checkpoint has {meta['num_clients']} clients, "
            f"simulation has {len(simulation.clients)}"
        )
    clients = meta["rng_states"]["clients"]
    for cid in clients:
        if int(cid) not in simulation.clients:
            raise ValueError(f"checkpoint references unknown client {cid}")
    groups = restore_run(simulation, directory, meta)

    simulation.rng.bit_generator.state = meta["rng_states"]["simulation"]
    for cid, state in clients.items():
        simulation.clients[int(cid)].sampler.rng.bit_generator.state = state

    if simulation.transport is not None and "transport" in meta["rng_states"]:
        simulation.transport.rng.bit_generator.state = meta["rng_states"]["transport"]

    if simulation.recovery is not None:
        if "guard_scalars" in meta:
            guard_state = unflatten_state({**groups.get("guard", {}), **meta["guard_scalars"]})
            try:
                simulation.recovery.load_state_dict(guard_state.get("recovery", {}))
            except KeyError as error:
                raise ValueError(
                    f"cannot resume from {directory}: its guard ring holds no engine "
                    f"states (no {error} entry; written by an older version)"
                ) from error
            simulation.monitor.load_state_dict(guard_state.get("monitor", {}))
            # Re-derive the mutated run knobs from the restored ladder
            # position: the backed-off server lr and, if recovery had
            # already escalated that far, the tightened quarantine.
            simulation.server.global_lr = (
                simulation.recovery.base_global_lr * simulation.recovery.lr_scale
            )
            if simulation.recovery.tightened:
                simulation.recovery.tightened = False
                simulation.recovery._tighten_quarantine(simulation)
        else:
            # Checkpoint written without a guard: treat the restored state
            # as the known-good baseline and start the ladder fresh.
            simulation.recovery.prime(simulation)

    return simulation.server.state.round
