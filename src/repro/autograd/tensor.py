"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class, a lightweight dynamic
computation graph with reverse-mode gradients.  It supports the operations
needed by the neural-network substrate in :mod:`repro.nn`: broadcasting
arithmetic, matrix multiplication, reductions, shape manipulation, indexing,
and the nonlinearities used by the paper's models.

The design mirrors the familiar ``torch.Tensor`` API where that keeps client
code readable, but stays deliberately small: every op records a backward
closure on the output tensor, and :meth:`Tensor.backward` walks the graph in
reverse topological order accumulating gradients into ``.grad``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True

#: Dtype every Tensor payload is converted to on construction.  float64 is
#: the bit-exact default (checkpoints, the guard and the equivalence tests
#: all rely on it); float32 roughly halves memory traffic on the hot path
#: and is opt-in per run via :func:`set_default_dtype` / CLI ``--dtype``.
_DEFAULT_DTYPE = np.dtype(np.float64)

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype) -> None:
    """Set the compute dtype used for all new tensors (float32 or float64)."""
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; choose float32 or float64"
        )
    _DEFAULT_DTYPE = resolved


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (see :func:`set_default_dtype`)."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager running a block under a different compute dtype."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast operation.

    Numpy broadcasting may have expanded dimensions of the original operand;
    the gradient of a broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _make_result(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Incoming gradient; defaults to ones (only valid for scalars when
            omitted, mirroring the torch convention).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (avoids recursion limits on
        # deep graphs such as unrolled LSTMs).  Only nodes that require grad
        # are pushed: the rest (data batches, constants) are leaves that can
        # never receive a gradient, and skipping them leaves the relative
        # order of the grad nodes -- hence the order in which a node with
        # several consumers sums their contributions -- unchanged.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and parent not in visited:
                    stack.append((parent, False))

        grads: dict[Tensor, np.ndarray] = {self: grad}
        for node in reversed(topo):
            node_grad = grads.pop(node, None)
            if node_grad is None:
                continue
            if not node._parents:
                node._accumulate(node_grad)
            if node._backward is not None:
                node._backward_dispatch(node, node_grad, grads)

    @staticmethod
    def _backward_dispatch(node: "Tensor", node_grad: np.ndarray, grads: dict) -> None:
        """Invoke the node's backward closure, routing into the grads dict.

        Kept out of line so each node's contribution tuple is freed once it
        is routed; a local of :meth:`backward`'s loop would stay alive
        through the next node's backward and raise peak memory.
        """
        contributions = node._backward(node_grad)
        for parent, contribution in zip(node._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + contribution
            else:
                grads[parent] = contribution

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(g: np.ndarray):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other_t.shape))

        return self._make_result(data, (self, other_t), backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(g: np.ndarray):
            return (_unbroadcast(g, self.shape), _unbroadcast(-g, other_t.shape))

        return self._make_result(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data
        self_data, other_data = self.data, other_t.data

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g * other_data, self.shape),
                _unbroadcast(g * self_data, other_t.shape),
            )

        return self._make_result(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data
        self_data, other_data = self.data, other_t.data

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g / other_data, self.shape),
                _unbroadcast(-g * self_data / (other_data**2), other_t.shape),
            )

        return self._make_result(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return (-g,)

        return self._make_result(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent
        self_data = self.data

        def backward(g: np.ndarray):
            return (g * exponent * self_data ** (exponent - 1),)

        return self._make_result(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data
        self_data, other_data = self.data, other_t.data

        def backward(g: np.ndarray):
            if self_data.ndim == 1 and other_data.ndim == 1:
                return (g * other_data, g * self_data)
            if other_data.ndim == 1:
                grad_self = np.expand_dims(g, -1) * other_data
                grad_other = np.tensordot(g, self_data, axes=(range(g.ndim), range(g.ndim)))
                return (grad_self, grad_other)
            if self_data.ndim == 1:
                grad_self = g @ np.swapaxes(other_data, -1, -2)
                grad_other = np.outer(self_data, g)
                return (grad_self, grad_other)
            grad_self = g @ np.swapaxes(other_data, -1, -2)
            grad_other = np.swapaxes(self_data, -1, -2) @ g
            return (
                _unbroadcast(grad_self, self_data.shape),
                _unbroadcast(grad_other, other_data.shape),
            )

        return self._make_result(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: np.ndarray):
            return (g * data,)

        return self._make_result(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        self_data = self.data

        def backward(g: np.ndarray):
            return (g / self_data,)

        return self._make_result(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: np.ndarray):
            return (g * (1.0 - data**2),)

        return self._make_result(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(g: np.ndarray):
            return (g * mask,)

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(g: np.ndarray):
            g_arr = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g_arr, in_shape).copy(),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                for ax in sorted(a % len(in_shape) for a in axes):
                    g_arr = np.expand_dims(g_arr, ax)
            return (np.broadcast_to(g_arr, in_shape).copy(),)

        return self._make_result(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        in_shape = self.shape
        self_data = self.data

        def backward(g: np.ndarray):
            g_arr = np.asarray(g)
            if axis is None:
                mask = self_data == self_data.max()
                return (mask * (g_arr / mask.sum()),)
            expanded = data if keepdims else np.expand_dims(data, axis)
            g_exp = g_arr if keepdims else np.expand_dims(g_arr, axis)
            mask = self_data == expanded
            counts = mask.sum(axis=axis, keepdims=True)
            return (mask * (np.broadcast_to(g_exp, in_shape) / counts),)

        return self._make_result(data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(g: np.ndarray):
            return (g.reshape(in_shape),)

        return self._make_result(data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.shape[:start_dim]
        return self.reshape(*lead, -1)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g: np.ndarray):
            return (g.transpose(inverse),)

        return self._make_result(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        in_shape = self.shape
        dtype = self.data.dtype

        def backward(g: np.ndarray):
            grad = np.zeros(in_shape, dtype=dtype)
            np.add.at(grad, index, g)
            return (grad,)

        return self._make_result(data, (self,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        p = padding
        # zeros + slice-assign rather than np.pad: same bits (padding is a
        # pure copy), a fraction of the per-call overhead at small tensors.
        data = np.zeros(
            self.shape[:-2] + (self.shape[-2] + 2 * p, self.shape[-1] + 2 * p),
            dtype=self.data.dtype,
        )
        data[..., p : p + self.shape[-2], p : p + self.shape[-1]] = self.data

        def backward(g: np.ndarray):
            slicer = tuple([slice(None)] * (self.ndim - 2) + [slice(p, -p), slice(p, -p)])
            return (g[slicer],)

        return self._make_result(data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (no gradient)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Construct a :class:`Tensor` (convenience mirroring ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad)
