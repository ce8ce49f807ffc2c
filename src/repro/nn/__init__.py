"""Neural-network substrate built on :mod:`repro.autograd`."""

from .activations import Flatten, ReLU, Sigmoid, Tanh
from .arena import BatchedClientArena, FlatParameterArena
from .batched import BatchedModelProgram, build_batched_forward, supports_batched
from .conv import Conv2d
from .dropout import Dropout
from .embedding import Embedding
from .linear import Linear
from .loss import CrossEntropyLoss, L2Regularizer, MSELoss
from .module import Module, Parameter, Sequential
from .normalization import BatchNorm2d, LayerNorm
from .pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from .recurrent import LSTM, LSTMCell

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "FlatParameterArena",
    "BatchedClientArena",
    "BatchedModelProgram",
    "build_batched_forward",
    "supports_batched",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "LayerNorm",
    "Dropout",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "CrossEntropyLoss",
    "MSELoss",
    "L2Regularizer",
]
