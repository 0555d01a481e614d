"""LARS — Layer-wise Adaptive Rate Scaling (You, Gitman & Ginsburg 2017).

This is the paper's enabling algorithm.  Plain SGD applies one global
learning rate to every layer, but the ratio ‖w‖/‖∇w‖ varies by orders of
magnitude across the layers of a deep network; with the very large learning
rates the linear scaling rule demands at batch 16K–32K, layers with a small
ratio diverge first and training collapses (Table 5).  LARS gives each layer
a *local* learning rate proportional to that ratio:

    local_lr  = η · ‖w‖ / (‖∇w‖ + β·‖w‖)          (trust ratio)
    v ← m·v + γ(t) · local_lr · (∇w + β·w)          (momentum on scaled grad)
    w ← w − v

where γ(t) is the global schedule (warmup + poly decay), η ("trust
coefficient") ≈ 0.001–0.02, and β is the weight decay.  The normalisation
makes each layer's update magnitude ≈ γ·η·‖w‖ — independent of the gradient
scale, hence stable at extreme batch sizes.

Following the reference implementation (NVCaffe 0.16), parameters whose
gradient norms are meaningless for the ratio — biases and BatchNorm
scale/shift — skip the trust-ratio scaling and fall back to the plain
momentum-SGD update (their ``Parameter.weight_decay`` is 0, which is the
marker the paper's stack uses too).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn.tensor import Parameter
from .optimizer import Optimizer

__all__ = ["LARS", "trust_ratio"]


def trust_ratio(
    weight_norm: float, grad_norm: float, weight_decay: float, eps: float = 1e-9
) -> float:
    """The LARS local-LR multiplier ‖w‖ / (‖∇w‖ + β·‖w‖).

    Degenerate cases return 1.0 (no scaling): a zero-weight layer has no
    meaningful scale yet, and a zero-gradient, zero-decay layer would divide
    by zero.
    """
    denom = grad_norm + weight_decay * weight_norm
    if weight_norm <= eps or denom <= eps:
        return 1.0
    return weight_norm / denom


class LARS(Optimizer):
    """LARS optimiser.

    Parameters
    ----------
    trust_coefficient:
        η above.  The LARS paper uses 0.001 for ResNet-50; AlexNet-BN at 32K
        works with ~0.01–0.02.  Exposed per recipe.
    momentum, weight_decay:
        As in :class:`repro.core.sgd.SGD` (paper: 0.9 / 0.0005).

    A parameter with ``weight_decay == 0`` — a bias or a BatchNorm γ/β in
    this code base — skips the trust ratio (module docstring).
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        trust_coefficient: float = 0.001,
        momentum: float = 0.9,
        weight_decay: float = 0.0005,
    ):
        super().__init__(params)
        if trust_coefficient <= 0:
            raise ValueError("trust_coefficient must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.trust_coefficient = float(trust_coefficient)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)

    def local_lr(self, p: Parameter) -> float:
        """Trust-ratio multiplier for parameter ``p`` at its current state."""
        if p.weight_decay == 0.0:
            return 1.0
        wd = self.weight_decay * p.weight_decay
        ratio = trust_ratio(
            float(np.linalg.norm(p.data)), float(np.linalg.norm(p.grad)), wd
        )
        return self.trust_coefficient * ratio

    def trust_ratios(self) -> dict[str, float]:
        """Per-parameter local-LR multipliers at the current gradients.

        The diagnostic view behind the LARS paper's motivation: ‖w‖/‖∇w‖
        spans orders of magnitude across layers, so the returned values do
        too.  Excluded parameters (biases/BN) report 1.0.  Keys are
        parameter names (positional index for unnamed parameters).
        """
        return {
            p.name or f"param{i}": self.local_lr(p) / (
                self.trust_coefficient if p.weight_decay != 0.0 else 1.0
            )
            for i, p in enumerate(self.params)
        }

    def apply_update(self, p: Parameter, state: dict, lr: float) -> None:
        wd = self.weight_decay * p.weight_decay
        g = p.grad + wd * p.data if wd else p.grad
        scale = lr * self.local_lr(p)
        v = state.get("momentum")
        if v is None:
            v = state["momentum"] = np.zeros_like(p.data)
        v *= self.momentum
        v += scale * g
        p.data -= v
