"""Figure 6 — fixed epochs fix the number of floating-point operations,
independent of batch size.

Two verifications: the analytic identity (F = 3·flops/image·E·n has no B in
it), and a measured check — iterating one epoch of the real batch loader at
any batch size touches every example exactly once, so the per-epoch flop
count is constant.
"""

from __future__ import annotations

from ..core import IMAGENET_TRAIN_SIZE
from ..data import BatchLoader, proxy_dataset
from ..nn.models import paper_model_cost
from ..perfmodel import total_flops
from .report import ExperimentResult

__all__ = ["run"]

BATCHES = [256, 1024, 8192, 32768]


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    cost = paper_model_cost("alexnet")
    flops = total_flops(cost, 100, IMAGENET_TRAIN_SIZE)
    ds = proxy_dataset("tiny")
    rows = []
    for b in BATCHES:
        proxy_b = max(1, b * ds.n_train // IMAGENET_TRAIN_SIZE) * 8
        loader = BatchLoader(ds.x_train, ds.y_train,
                             batch_size=min(proxy_b, ds.n_train))
        touched = sum(len(yb) for _, yb in loader)
        rows.append(
            {
                "batch_size": b,
                "analytic_total_Pflops": flops / 1e15,
                "proxy_examples_per_epoch": touched,
                "epoch_flops_constant": touched == ds.n_train,
            }
        )
    return ExperimentResult(
        experiment="figure6",
        title="Total flops vs batch size at fixed epochs (constant)",
        columns=["batch_size", "analytic_total_Pflops",
                 "proxy_examples_per_epoch", "epoch_flops_constant"],
        rows=rows,
        notes=(
            "The flop budget column is identical for every batch size — "
            "'large batch can achieve the same accuracy in the fixed number "
            "of floating point operations'."
        ),
    )


if __name__ == "__main__":
    from ..obs.console import get_console

    get_console().info(run().format())
