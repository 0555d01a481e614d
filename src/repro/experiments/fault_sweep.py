"""Fault sweep — cost of failures on simulated time-to-accuracy.

The paper's headline numbers (Tables 2/8/9) assume every one of 1024–2048
workers completes every allreduce of every iteration.  This sweep measures
what that assumption hides: for a grid of message-loss rates × batch sizes
(and one rank-kill scenario per batch size), how much simulated time the
reliable link's retransmits and the elastic checkpoint-restart add, and
whether accuracy survives.

Because the fault machinery is deterministic and value-preserving
(retransmit semantics; restart re-shards the same global batch), accuracy
columns should match the fault-free row exactly for the loss rows and stay
within noise for the kill rows — the *time* columns carry the damage.
"""

from __future__ import annotations

from ..cluster import SyncSGDConfig, train_sync_sgd
from ..core import SGD, ConstantLR
from ..data import gaussian_blobs
from ..faults import FaultPlan
from ..nn.models import mlp
from ..perfmodel import network
from .report import ExperimentResult

__all__ = ["run"]

_SCALE = {
    "tiny": dict(n=96, epochs=3, world=4),
    "small": dict(n=192, epochs=4, world=4),
    "medium": dict(n=384, epochs=6, world=8),
}

DROP_RATES = [0.0, 0.001, 0.01, 0.05]


def _run_one(
    n: int,
    epochs: int,
    world: int,
    batch: int,
    plan: FaultPlan | None,
    seed: int,
):
    x, y = gaussian_blobs(n, num_classes=3, dim=8, seed=seed)

    def builder():
        return mlp(8, [12], 3, seed=seed + 1)

    config = SyncSGDConfig(
        world=world,
        epochs=epochs,
        batch_size=batch,
        algorithm="ring",
        profile=network("opa"),
        compute_time=lambda k: 1e-4 * k,
        shuffle_seed=seed,
        fault_plan=plan,
        checkpoint_every=1,
        restart_overhead_seconds=1.0 if plan and plan.kills else 0.0,
    )
    return train_sync_sgd(
        builder,
        lambda p: SGD(p, momentum=0.9, weight_decay=0.0005),
        ConstantLR(0.1),
        x, y, x[: n // 3], y[: n // 3],
        config,
    )


def run(scale: str = "small", seed: int = 0) -> ExperimentResult:
    params = _SCALE.get(scale, _SCALE["small"])
    n, epochs, world = params["n"], params["epochs"], params["world"]
    batches = [world * 8, world * 16]
    rows = []
    for batch in batches:
        baseline = None
        for drop in DROP_RATES:
            plan = (
                FaultPlan(seed=seed, drop_prob=drop) if drop > 0.0 else None
            )
            res = _run_one(n, epochs, world, batch, plan, seed=seed + 11)
            if drop == 0.0:
                baseline = res.simulated_seconds
            stats = res.fault_stats
            rows.append(
                {
                    "batch_size": batch,
                    "fault": f"drop {drop:.1%}" if drop else "none",
                    "final_acc": res.final_test_accuracy,
                    "sim_seconds": res.simulated_seconds,
                    "slowdown": res.simulated_seconds / baseline,
                    "retransmits": stats.retransmits if stats else 0,
                    "recoveries": res.recoveries,
                }
            )
        # one mid-training crash: kill the last rank halfway through
        kill_iter = (epochs // 2) * (-(-n // batch))
        res = _run_one(
            n, epochs, world, batch,
            FaultPlan(seed=seed, kills={world - 1: kill_iter}),
            seed=seed + 11,
        )
        rows.append(
            {
                "batch_size": batch,
                "fault": f"kill rank {world - 1}",
                "final_acc": res.final_test_accuracy,
                "sim_seconds": res.simulated_seconds,
                "slowdown": res.simulated_seconds / baseline,
                "retransmits": res.fault_stats.retransmits,
                "recoveries": res.recoveries,
            }
        )
    return ExperimentResult(
        experiment="fault_sweep",
        title="Failure rate x batch size: degradation of time-to-accuracy",
        columns=["batch_size", "fault", "final_acc", "sim_seconds",
                 "slowdown", "retransmits", "recoveries"],
        rows=rows,
        notes=(
            "Message loss is absorbed by the reliable link (values exact, "
            "time lost to retransmits); a killed rank triggers elastic "
            "restart from the latest epoch checkpoint with P-1 ranks.  "
            "Accuracy therefore holds while simulated seconds degrade — "
            "the cost the paper's perfect-interconnect assumption hides."
        ),
    )


if __name__ == "__main__":
    from ..obs.console import get_console

    get_console().info(run().format())
