"""``repro.nn`` — from-scratch numpy DNN substrate.

Provides the layers, losses, models and cost accounting the reproduction is
built on.  Backprop is hand-derived per layer and validated by the
finite-difference checkers in :mod:`repro.nn.gradcheck`.
"""

from . import models
from .flops import (
    BYTES_PER_PARAM_FP32,
    FWD_BWD_FLOP_FACTOR,
    ModelCost,
    activation_elements_per_example,
    count_parameters,
    forward_flops_per_image,
    model_cost,
    scaling_ratio,
    training_flops,
)
from .gradcheck import check_layer_gradients, numeric_gradient, relative_error
from .layers import (
    AvgPool2D,
    ConcatBranches,
    BatchNorm,
    SyncBatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LocalResponseNorm,
    MaxPool2D,
    Module,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import SoftmaxCrossEntropy, log_softmax, softmax
from .memory import MemoryContext, MemoryPlan, plan_training_step
from .tensor import Parameter

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "ConcatBranches",
    "Conv2D",
    "Dense",
    "Dropout",
    "BatchNorm",
    "SyncBatchNorm",
    "LocalResponseNorm",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "Residual",
    "SoftmaxCrossEntropy",
    "softmax",
    "log_softmax",
    "ModelCost",
    "model_cost",
    "count_parameters",
    "forward_flops_per_image",
    "training_flops",
    "scaling_ratio",
    "activation_elements_per_example",
    "BYTES_PER_PARAM_FP32",
    "FWD_BWD_FLOP_FACTOR",
    "check_layer_gradients",
    "numeric_gradient",
    "relative_error",
    "MemoryContext",
    "MemoryPlan",
    "plan_training_step",
    "models",
]
