"""Module/Parameter abstractions for the neural-network substrate.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
and supports the operations federated learning needs at the client/server
boundary: flattening all parameters into a single numpy vector and loading
such a vector back (see ``parameters_vector`` / ``load_vector``).  The
parameter-vector view is what the FL algorithms in :mod:`repro.algorithms`
operate on — it makes the code read like the paper's math over ``w``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..autograd import Tensor
from .arena import FlatParameterArena

#: Bumped whenever any module registers a Parameter or a child Module.  A
#: module's cached parameter list is valid while this has not moved since
#: the list was built, so registering on a child invalidates its ancestors
#: too, with no parent links to walk.
_REGISTRATIONS = 0

#: :meth:`Module.state_dict` keys a buffer as this prefix + its dotted name.
BUFFER_PREFIX = "buffer:"


class Parameter(Tensor):
    """A trainable tensor registered on a :class:`Module`.

    When the owning module has a :class:`FlatParameterArena`, ``_grad_view``
    aliases this parameter's slice of the arena's gradient buffer and the
    first backward-pass accumulation writes straight into it, so
    ``Module.gradient_vector`` needs no per-parameter concatenation.
    """

    __slots__ = ("_grad_view",)

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self._grad_view = None

    def _accumulate(self, grad: np.ndarray) -> None:
        view = self._grad_view
        if view is not None and self.grad is None:
            np.copyto(view, grad)
            self.grad = view
        else:
            # Covers grad-is-view (in-place +=) and non-arena parameters.
            super()._accumulate(grad)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically via ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_flat_arena", None)
        object.__setattr__(self, "_param_cache", (-1, []))

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        global _REGISTRATIONS
        if isinstance(value, Parameter):
            self._parameters[name] = value
            _REGISTRATIONS += 1
        elif isinstance(value, Module):
            self._modules[name] = value
            _REGISTRATIONS += 1
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return list(self._parameter_list())

    def _parameter_list(self) -> List[Parameter]:
        """The cached parameter list; callers must not mutate it."""
        registrations, params = self._param_cache
        current = _REGISTRATIONS  # read before the walk, so the tag never runs ahead
        if registrations != current:
            params = [param for _, param in self.named_parameters()]
            object.__setattr__(self, "_param_cache", (current, params))
        return params

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield f"{prefix}{name}", self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # Train / eval
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # Gradient utilities
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self._parameter_list():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Flat-vector view (the FL boundary)
    # ------------------------------------------------------------------
    def _arena(self) -> FlatParameterArena:
        """Return a valid :class:`FlatParameterArena` for this module.

        The cached arena is revalidated with an identity check per call;
        any parameter rebinding or registration change invalidates it and
        triggers a transparent rebuild from the current parameter values.
        """
        params = self._parameter_list()
        arena = self._flat_arena
        if arena is not None and arena.owns(params):
            return arena
        arena = FlatParameterArena(params)
        object.__setattr__(self, "_flat_arena", arena)
        return arena

    def parameters_vector(self) -> np.ndarray:
        """Concatenate all parameters into a single flat vector."""
        return self._arena().parameters_vector()

    def gradient_vector(self) -> np.ndarray:
        """Concatenate all parameter gradients (zeros where unset)."""
        return self._arena().gradient_vector()

    def load_vector(self, vector: np.ndarray) -> None:
        """Load a flat parameter vector back into the structured parameters."""
        arena = self._arena()
        if vector.size != arena.size:
            raise ValueError(f"vector has {vector.size} entries, model needs {arena.size}")
        arena.load_vector(vector)

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, buffer in self.named_buffers():
            state[BUFFER_PREFIX + name] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith(BUFFER_PREFIX):
                self.load_buffer(name[len(BUFFER_PREFIX) :], value)
            else:
                if name not in params:
                    raise KeyError(f"unexpected parameter {name!r}")
                params[name].data[...] = value
        missing = set(params) - {k for k in state if not k.startswith(BUFFER_PREFIX)}
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")

    def load_buffer(self, dotted: str, value: np.ndarray) -> None:
        """Set the buffer named ``dotted`` (e.g. ``bn1.running_mean``) to a copy of ``value``."""
        parts = dotted.split(".")
        module: Module = self
        for part in parts[:-1]:
            module = module._modules[part]
        module._set_buffer(parts[-1], np.array(value, copy=True))

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
            self._layers.append(layer)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def forward(self, x):
        for layer in self._layers:
            x = layer(x)
        return x
