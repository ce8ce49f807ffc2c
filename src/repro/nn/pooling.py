"""Pooling layers."""

from __future__ import annotations

from ..autograd import Tensor, avg_pool2d, max_pool2d
from .module import Module


class MaxPool2d(Module):
    """Max pooling over square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pooling over non-overlapping square windows."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size)


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions, yielding ``(batch, channels)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
