"""Ablation: the augmentation column of Tables 9/10.

The paper's baseline accuracy depends on the augmentation regime: none
73.0 %, weak 75.3 %, Facebook's heavy 76.2 % (which the paper "failed to
reproduce fully").  We reproduce the ordering on a small-train proxy where
generalisation is actually at stake: none < weak, with heavy ≈ weak.
"""

import numpy as np

from repro.core import SGD, backprop
from repro.core.metrics import top1_accuracy
from repro.data import BatchLoader, make_dataset
from repro.experiments.report import format_table
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import micro_resnet

from .conftest import run_once

PAPER = {"none": 0.730, "weak": 0.753, "heavy": 0.762}

_DS = make_dataset(num_classes=8, image_size=12, train_size=192,
                   test_size=512, noise=1.5, seed=7)


def train_with_aug(aug: str, epochs: int = 20, seed: int = 2) -> float:
    model = micro_resnet(num_classes=8, width=8, seed=seed)
    opt = SGD(model.parameters(), momentum=0.9, weight_decay=0.0005)
    loss_fn = SoftmaxCrossEntropy()
    loader = BatchLoader(_DS.x_train, _DS.y_train, batch_size=32,
                         augment=aug, seed=seed)
    best = 0.0
    with np.errstate(all="ignore"):
        for batches in loader.epochs(epochs):
            for xb, yb in batches:
                backprop(model, loss_fn, opt.params, xb, yb, [slice(None)], len(yb))
                opt.step(0.05)
            model.eval()
            preds = np.concatenate([
                model.forward(_DS.x_test[lo : lo + 256])
                for lo in range(0, len(_DS.x_test), 256)
            ])
            best = max(best, top1_accuracy(preds, _DS.y_test))
    return best


def sweep():
    return [
        {"augmentation": aug, "paper_resnet50_top1": PAPER[aug],
         "proxy_top1": train_with_aug(aug)}
        for aug in ["none", "weak", "heavy"]
    ]


def test_ablation_augmentation(benchmark):
    rows = run_once(benchmark, sweep)
    print("\n== ablation: augmentation regime (small-train proxy) ==")
    print(format_table(["augmentation", "paper_resnet50_top1", "proxy_top1"], rows))

    acc = {r["augmentation"]: r["proxy_top1"] for r in rows}
    # the paper's ordering: augmentation lifts the baseline
    assert acc["weak"] > acc["none"] + 0.05
    # heavy is not a further clear win on the proxy (the paper likewise
    # could not reproduce Facebook's heavy-augmentation margin)
    assert acc["heavy"] > acc["none"]
