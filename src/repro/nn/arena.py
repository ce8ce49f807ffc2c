"""Flat-parameter arena: one contiguous buffer backing a model's parameters.

Every FL algorithm in this repo operates on flat parameter/gradient vectors
(the ``w`` of the paper's math), so the client hot loop crosses the
structured-parameters <-> flat-vector boundary twice per local step.  The
arena is the only layout behind that crossing: it preallocates **one**
contiguous buffer per model and rebinds each
:class:`~repro.nn.module.Parameter`'s ``data`` to a zero-copy view into it,
so:

- ``parameters_vector`` is a single ``buffer.copy()``,
- ``load_vector`` is a single ``np.copyto`` into the buffer, and
- ``gradient_vector`` reads a parallel gradient buffer that backward passes
  accumulate into directly (see ``Parameter._accumulate``).

A module without parameters gets a size-0 arena in the compute dtype;
parameters of mixed dtypes cannot share one buffer and raise ``ValueError``.

Aliasing rules (see docs/PERFORMANCE.md): views stay valid as long as
nothing rebinds ``param.data``.  All in-tree code mutates parameters
in place (``param.data[...] = ...``, ``param.data -= ...``); if a parameter
is ever rebound — or the parameter list itself changes — :meth:`owns`
returns ``False`` and the owning module transparently rebuilds the arena,
re-copying current values, so correctness never depends on a stale arena.
Vectors returned to callers are always independent copies; the buffers are
never handed out.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autograd import get_default_dtype


def _common_dtype(params: Sequence) -> np.dtype:
    """The one dtype of ``params``: the compute dtype when there are none.

    Raises ``ValueError`` naming the dtypes when they differ, since one
    flat buffer cannot hold them all.
    """
    dtypes = {p.data.dtype for p in params}
    if len(dtypes) > 1:
        names = ", ".join(sorted(str(d) for d in dtypes))
        raise ValueError(f"parameters mix dtypes ({names}); a flat vector needs one")
    return dtypes.pop() if dtypes else get_default_dtype()


class FlatParameterArena:
    """Contiguous parameter + gradient storage for one module tree."""

    __slots__ = ("buffer", "grad_buffer", "size", "_params", "_views", "_grad_views")

    def __init__(self, params: Sequence) -> None:
        self._params = list(params)
        total = sum(int(p.size) for p in self._params)
        dtype = _common_dtype(self._params)
        self.size = total
        self.buffer = np.empty(total, dtype=dtype)
        self.grad_buffer = np.zeros(total, dtype=dtype)
        self._views: List[np.ndarray] = []
        self._grad_views: List[np.ndarray] = []
        offset = 0
        for param in self._params:
            span = int(param.size)
            view = self.buffer[offset : offset + span].reshape(param.shape)
            view[...] = param.data
            param.data = view
            grad_view = self.grad_buffer[offset : offset + span].reshape(param.shape)
            if param.grad is not None:
                grad_view[...] = param.grad
                param.grad = grad_view
            param._grad_view = grad_view
            self._views.append(view)
            self._grad_views.append(grad_view)
            offset += span

    # ------------------------------------------------------------------
    def owns(self, params: Sequence) -> bool:
        """Whether this arena still backs exactly ``params`` (cheap check)."""
        if len(params) != len(self._params):
            return False
        for param, known, view in zip(params, self._params, self._views):
            if param is not known or param.data is not view:
                return False
        return True

    # ------------------------------------------------------------------
    # Flat-vector operations (all single-buffer, no per-parameter allocation)
    # ------------------------------------------------------------------
    def parameters_vector(self) -> np.ndarray:
        """Copy of the flat parameter buffer."""
        return self.buffer.copy()

    def load_vector(self, vector: np.ndarray) -> None:
        """Overwrite all parameters from a flat vector (one ``np.copyto``)."""
        np.copyto(self.buffer, np.asarray(vector).reshape(-1))

    def gradient_vector(self) -> np.ndarray:
        """Copy of the flat gradient buffer (zeros where grads are unset).

        Backward passes accumulate straight into ``grad_buffer`` through the
        per-parameter views, so the usual case is zero fix-up work; chunks
        are only written here when a grad is unset (stale buffer content
        must read as zero) or was rebound to a foreign array by a caller.
        """
        for param, grad_view in zip(self._params, self._grad_views):
            if param.grad is None:
                grad_view[...] = 0.0
            elif param.grad is not grad_view:
                grad_view[...] = param.grad
        return self.grad_buffer.copy()


class BatchedClientArena:
    """``(clients, P)`` parameter + gradient storage for a whole cohort.

    The batched execution path (:mod:`repro.fl.batched`) stacks K sampled
    clients' flat parameter vectors into one matrix so local SGD steps run
    as batched tensor ops with a leading client axis.  This arena owns the
    two matrices and hands out zero-copy per-parameter views of shape
    ``(clients, *param_shape)`` — row ``k`` of every view aliases client
    k's slice, laid out with exactly the same per-parameter offsets as
    :class:`FlatParameterArena`, so ``params_rows()[k]`` is directly
    comparable (byte-for-byte) with a sequential client's flat vector.

    Peak memory is O(clients * P) for parameters plus the same for
    gradients; nothing here scales with the population size.  The arena is
    storage only — :class:`~repro.nn.batched.BatchedModelProgram` binds
    :class:`~repro.nn.module.Parameter` objects to the views and this class
    reuses them (duck-typed) for the gradient zero-fixup, mirroring
    :meth:`FlatParameterArena.gradient_vector`.
    """

    __slots__ = (
        "buffer",
        "grad_buffer",
        "clients",
        "size",
        "_shapes",
        "_spans",
        "_offsets",
        "_bound",
    )

    def __init__(self, clients: int, shapes: Sequence[tuple], dtype) -> None:
        if clients < 1:
            raise ValueError(f"need at least one client, got {clients}")
        self.clients = int(clients)
        self._shapes = [tuple(int(d) for d in shape) for shape in shapes]
        self._spans = [int(np.prod(shape)) if shape else 1 for shape in self._shapes]
        self._offsets: List[int] = []
        offset = 0
        for span in self._spans:
            self._offsets.append(offset)
            offset += span
        self.size = offset
        self.buffer = np.empty((self.clients, self.size), dtype=dtype)
        self.grad_buffer = np.zeros((self.clients, self.size), dtype=dtype)
        self._bound: Optional[List] = None

    @classmethod
    def from_parameters(cls, clients: int, params: Sequence) -> "BatchedClientArena":
        """Build an arena shaped after a template parameter list.

        Same dtype rule as :class:`FlatParameterArena`: the compute dtype
        when there are no parameters, ``ValueError`` when dtypes mix.
        """
        params = list(params)
        return cls(clients, [p.shape for p in params], _common_dtype(params))

    # ------------------------------------------------------------------
    def view(self, index: int) -> np.ndarray:
        """Zero-copy ``(clients, *shape)`` view of parameter ``index``."""
        offset, span = self._offsets[index], self._spans[index]
        return self.buffer[:, offset : offset + span].reshape(
            (self.clients,) + self._shapes[index]
        )

    def grad_view(self, index: int) -> np.ndarray:
        """Zero-copy ``(clients, *shape)`` gradient view of parameter ``index``."""
        offset, span = self._offsets[index], self._spans[index]
        return self.grad_buffer[:, offset : offset + span].reshape(
            (self.clients,) + self._shapes[index]
        )

    def __len__(self) -> int:
        return len(self._shapes)

    def bind(self, params: Sequence) -> None:
        """Register the batched parameters whose grads live in this arena.

        Each parameter's ``_grad_view`` is pointed at its cached gradient
        view so the first backward accumulation writes straight into
        ``grad_buffer`` (see ``Parameter._accumulate``); the same view
        objects are kept here for the identity check in
        :meth:`gradients_matrix`.
        """
        if len(params) != len(self._shapes):
            raise ValueError(
                f"expected {len(self._shapes)} parameters, got {len(params)}"
            )
        self._bound = []
        for index, param in enumerate(params):
            grad_view = self.grad_view(index)
            param._grad_view = grad_view
            self._bound.append((param, grad_view))

    # ------------------------------------------------------------------
    def load_rows(self, rows: Sequence[np.ndarray]) -> None:
        """Overwrite each client row from a flat ``(P,)`` vector."""
        if len(rows) != self.clients:
            raise ValueError(f"expected {self.clients} rows, got {len(rows)}")
        for k, row in enumerate(rows):
            np.copyto(self.buffer[k], np.asarray(row).reshape(-1))

    def params_rows(self) -> np.ndarray:
        """The live ``(clients, P)`` buffer itself (mutate with care).

        The executor updates parameters in place (``rows -= lr * d``)
        between steps; handing out the buffer avoids a (K, P) copy per
        local step.  Never exposed outside :mod:`repro.fl.batched`.
        """
        return self.buffer

    def gradients_matrix(self) -> np.ndarray:
        """Copy of the ``(clients, P)`` gradient matrix (zeros where unset).

        Mirrors :meth:`FlatParameterArena.gradient_vector`: backward passes
        accumulate straight into ``grad_buffer`` through the bound
        parameters' ``_grad_view``s, so fix-up work only happens when a
        grad is unset or was rebound to a foreign array.
        """
        if self._bound is not None:
            for param, grad_view in self._bound:
                if param.grad is None:
                    grad_view[...] = 0.0
                elif param.grad is not grad_view:
                    grad_view[...] = param.grad
        return self.grad_buffer.copy()
