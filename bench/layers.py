"""The traced layers: which public functions make up each one.

Every boundary is a public name of the program, wrapped from outside the
way a user's profiler would (class attributes and module globals are
replaced by :meth:`tracer.Tracer.wrap` wrappers).  Module globals are
wrapped where the calling engine resolves them, e.g. ``evaluate`` in both
``repro.fl.simulation`` and ``repro.federation.coordinator``.

Every layer below runs on every benchmark workload, so no per-layer
metric is a constant zero.  Two engine-specific boundaries are folded
into a layer both engines have: the sync ``FederatedSimulation.run`` and
the async ``AsyncCoordinator.run`` loops are ``fl.engine`` (the
coordinator's network model and dispatch bookkeeping are its self time),
and building client objects — ``make_clients`` on the sync path,
``ClientRegistry.materialize``/``release`` on the async one — is
``fl.clients``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Iterator, List, Tuple

Target = Tuple[object, str]


def _hierarchy(base: type) -> Iterator[type]:
    yield base
    for sub in base.__subclasses__():
        yield from _hierarchy(sub)


def _own(base: type, *names: str) -> List[Target]:
    """``names`` wherever ``base`` or a subclass defines them itself."""
    return [
        (cls, name)
        for cls in _hierarchy(base)
        for name in names
        if inspect.isfunction(vars(cls).get(name))
    ]


def boundaries() -> Dict[str, List[Target]]:
    """Layer name -> the (owner, attribute) pairs whose calls it covers."""
    from repro import runrecord
    from repro.algorithms import registry  # noqa: F401  (imports every strategy)
    from repro.algorithms.base import Strategy
    from repro.autograd.tensor import Tensor
    from repro.data.loader import BatchSampler
    from repro.experiments import runner
    from repro.federation import coordinator, persist
    from repro.federation.registry import ClientRegistry
    from repro.fl import checkpoint, simulation
    from repro.fl.client import Client
    from repro.fl.sampling import PARTICIPATION_SCHEMES
    from repro.fl.server import Server
    from repro.nn.module import Module

    return {
        "autograd.backward": [(Tensor, "backward")],
        "nn.forward": [(Module, "__call__")],
        "nn.arena": [
            (Module, name) for name in ("load_vector", "gradient_vector", "parameters_vector")
        ],
        "data.sample": [(BatchSampler, "sample")],
        "fl.client": _own(Client, "local_round"),
        "algorithms.correction": _own(Strategy, "local_direction", "prox_gradient"),
        "algorithms.aggregate": _own(Strategy, "aggregate", "post_round"),
        "algorithms.active_clients": _own(Strategy, "active_clients"),
        "fl.sampling": [(scheme, "select") for scheme in PARTICIPATION_SCHEMES.values()],
        "fl.server": [(Server, "run_aggregation"), (Server, "skip_round")],
        "fl.evaluate": [(simulation, "evaluate"), (coordinator, "evaluate")],
        "fl.engine": [(simulation.FederatedSimulation, "run"), (coordinator.AsyncCoordinator, "run")],
        "fl.clients": [
            (runner, "make_clients"),
            (ClientRegistry, "materialize"),
            (ClientRegistry, "release"),
        ],
        "io.checkpoint": [(checkpoint, "save_simulation"), (persist, "save_coordinator")],
        "io.runrecord": [
            (owner, name)
            for owner in (runrecord, runner)
            for name in ("build_run_record", "write_run_record")
        ],
    }


def install(tracer) -> Callable[[], None]:
    """Wrap every layer boundary with ``tracer``; returns the undo function."""
    patched: List[Tuple[object, str, object]] = []
    for layer, targets in boundaries().items():
        for owner, name in targets:
            original = vars(owner)[name]
            setattr(owner, name, tracer.wrap(layer, original))
            patched.append((owner, name, original))

    def restore() -> None:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)

    return restore
