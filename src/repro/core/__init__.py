"""``repro.core`` — the paper's contribution: LARS large-batch training.

Exports the optimisers (LARS, momentum SGD), the schedule algebra (linear
scaling rule, gradual warmup, poly decay), the serial reference trainer,
``backprop`` (the one forward/loss/backward every trainer runs) and the
paper's hyper-parameter recipes encoded as data.
"""

from .adam import Adam
from .batch_schedule import BatchSizeSchedule, ConstantBatch, SteppedBatchGrowth
from .lamb import LAMB
from .lars import LARS, trust_ratio
from .metrics import EpochRecord, RunningMean, top1_accuracy, top_k_accuracy
from .optimizer import Optimizer
from .recipes import (
    IMAGENET_TRAIN_SIZE,
    PAPER_RECIPES,
    Recipe,
    build_optimizer,
    build_schedule,
    scale_to,
)
from .schedules import (
    ConstantLR,
    GradualWarmup,
    PolynomialDecay,
    Schedule,
    StepDecay,
    linear_scaled_lr,
    paper_schedule,
    sqrt_scaled_lr,
)
from .sgd import SGD
from .step import backprop
from .trainer import TrainResult, Trainer, iterations_per_epoch

__all__ = [
    "LARS",
    "LAMB",
    "Adam",
    "SGD",
    "Optimizer",
    "trust_ratio",
    "Schedule",
    "ConstantLR",
    "PolynomialDecay",
    "StepDecay",
    "GradualWarmup",
    "BatchSizeSchedule",
    "ConstantBatch",
    "SteppedBatchGrowth",
    "linear_scaled_lr",
    "sqrt_scaled_lr",
    "paper_schedule",
    "Trainer",
    "TrainResult",
    "iterations_per_epoch",
    "backprop",
    "Recipe",
    "PAPER_RECIPES",
    "build_optimizer",
    "build_schedule",
    "scale_to",
    "IMAGENET_TRAIN_SIZE",
    "top1_accuracy",
    "top_k_accuracy",
    "RunningMean",
    "EpochRecord",
]
