"""LAMB (You et al. 2019) — the successor this paper's line of work led to.

The paper's conclusion points at scaling batch sizes further; the same first
author followed up with LAMB, which applies the LARS trust-ratio idea to the
Adam direction instead of the raw gradient:

    r      = m̂ / (√v̂ + ε) + λ·w          (Adam direction + decoupled decay)
    ratio  = ‖w‖ / ‖r‖                    (layer-wise trust ratio)
    w     ← w − γ(t) · ratio · r

Included as the repository's "future work" extension: the large-batch
ablation bench compares SGD / LARS / LAMB under the same schedules.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn.tensor import Parameter
from .adam import Adam

__all__ = ["LAMB"]


class LAMB(Adam):
    """Layer-wise adaptive moments for batch training.

    Parameters follow :class:`Adam`.  As in :class:`repro.core.lars.LARS`,
    a parameter with ``weight_decay == 0`` (a bias or a BN parameter) takes
    the plain Adam step.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-6,
        weight_decay: float = 0.0,
        clip_ratio: float = 10.0,
    ):
        super().__init__(params, beta1=beta1, beta2=beta2, eps=eps,
                         weight_decay=weight_decay, decoupled=True)
        if clip_ratio <= 0:
            raise ValueError("clip_ratio must be positive")
        self.clip_ratio = float(clip_ratio)

    def apply_update(self, p: Parameter, state: dict, lr: float) -> None:
        direction = self._adam_direction(p, state)
        if p.weight_decay == 0.0:
            p.data -= lr * direction
            return
        w_norm = float(np.linalg.norm(p.data))
        r_norm = float(np.linalg.norm(direction))
        if w_norm > 0 and r_norm > 0:
            ratio = min(w_norm / r_norm, self.clip_ratio)
        else:
            ratio = 1.0
        p.data -= lr * ratio * direction
