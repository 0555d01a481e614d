"""Figure 2 — data parallelism (the paper's schematic, made executable).

Figure 2(a) is a diagram: P workers send gradients to a master, the master
updates w and broadcasts it back.  Our master-worker sync-SGD mode runs that
diagram's messages; the master broadcasts the summed gradient rather than w,
the same |W| floats, and every replica's identical update yields exactly the
w it would send.  This experiment runs it on the simulated fabric and
verifies the message pattern the figure depicts (gradients in: P−1 tree
messages; out: P−1 tree messages) and that it computes the same update as
the decentralised allreduce mode.

Figure 2(b) (model parallelism) is discussed but not evaluated by the paper;
we record the boundary-crossing communication its caption describes as an
analytic note.
"""

from __future__ import annotations

import numpy as np

from ..cluster import SyncSGDConfig, train_sync_sgd
from ..core import SGD, ConstantLR
from ..data import gaussian_blobs
from ..nn.models import mlp
from .report import ExperimentResult

__all__ = ["run"]


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    x, y = gaussian_blobs(64, num_classes=3, dim=6, seed=11)

    def builder():
        return mlp(6, [8], 3, seed=4)

    def opt_builder(params):
        return SGD(params, momentum=0.9, weight_decay=0.0)

    rows = []
    states = {}
    for mode in ["master", "allreduce"]:
        config = SyncSGDConfig(world=4, epochs=1, batch_size=16, mode=mode,
                               shuffle_seed=2)
        res = train_sync_sgd(builder, opt_builder, ConstantLR(0.1),
                             x, y, x[:16], y[:16], config)
        states[mode] = res.final_state
        rows.append(
            {
                "mode": mode,
                "world": 4,
                "iterations": 4,
                "messages": res.messages,
                "comm_bytes": res.comm_bytes,
            }
        )
    diff = max(
        np.abs(states["master"][k] - states["allreduce"][k]).max()
        for k in states["master"]
    )
    return ExperimentResult(
        experiment="figure2",
        title="Data parallelism: master-worker vs allreduce (Figure 2a, executable)",
        columns=["mode", "world", "iterations", "messages", "comm_bytes"],
        rows=rows,
        notes=(
            f"Both modes produce identical weights (max diff {diff:.2e}) — "
            "the sequential-consistency property the figure's scheme "
            "relies on.  Gradient-in/sum-out messages per iteration in "
            "master mode: 2(P-1) plus the per-epoch metric reduction."
        ),
    )


if __name__ == "__main__":
    from ..obs.console import get_console

    get_console().info(run().format())
