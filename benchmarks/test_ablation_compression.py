"""Ablation: gradient compression vs large batches.

The paper shrinks communication by growing B (fewer |W|-sized messages);
the cited 1-bit SGD line shrinks the messages instead.  This ablation trains
the same model on a 4-rank simulated cluster under both regimes and compares
wire bytes and final accuracy.
"""


from repro.cluster import (
    NoCompression,
    OneBitCompressor,
    SyncSGDConfig,
    TopKCompressor,
    train_sync_sgd,
)
from repro.core import SGD
from repro.data import gaussian_blobs
from repro.experiments.report import format_table
from repro.nn.models import mlp

from .conftest import run_once

WORLD, EPOCHS, BATCH, LR = 4, 6, 32, 0.05
_X, _Y = gaussian_blobs(256, num_classes=3, dim=10, seed=31)


def train_with(compressor_factory):
    """The library's sync data-parallel SGD with a compressed gradient
    exchange; accuracy is measured on the training set."""
    result = train_sync_sgd(
        lambda: mlp(10, [16], 3, seed=6),
        lambda params: SGD(params, momentum=0.9, weight_decay=0.0),
        LR, _X, _Y, _X, _Y,
        SyncSGDConfig(world=WORLD, epochs=EPOCHS, batch_size=BATCH, shuffle_seed=3,
                      compressor_factory=compressor_factory),
    )
    return result.final_test_accuracy, result.comm_bytes


def sweep():
    rows = []
    for name, factory in [
        ("full fp64 (baseline)", NoCompression),
        ("1-bit + error feedback", OneBitCompressor),
        ("top-10% + error feedback", lambda: TopKCompressor(k=20)),
    ]:
        acc, nbytes = train_with(factory)
        rows.append({"exchange": name, "train_accuracy": acc, "wire_MB": nbytes / 1e6})
    return rows


def test_ablation_compression(benchmark):
    rows = run_once(benchmark, sweep)
    print("\n== ablation: gradient compression vs full-precision exchange ==")
    print(format_table(["exchange", "train_accuracy", "wire_MB"], rows))

    full, onebit, topk = rows
    # compression slashes wire bytes by an order of magnitude or more
    assert onebit["wire_MB"] < full["wire_MB"] / 10
    assert topk["wire_MB"] < full["wire_MB"] / 3
    # error feedback keeps the compressed runs competitive
    assert full["train_accuracy"] > 0.9
    assert onebit["train_accuracy"] > full["train_accuracy"] - 0.15
    assert topk["train_accuracy"] > full["train_accuracy"] - 0.15
