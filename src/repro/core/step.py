"""The one forward/loss/backward of every trainer.  Each chunk's loss
gradient is scaled by |chunk|/|batch| before backward (Goyal et al.), so
gradients summed over micro-batches or rank shards are the batch mean, and a
world-1 cluster run is the serial run bit for bit."""

from __future__ import annotations

from .metrics import top1_accuracy

__all__ = ["backprop", "iterations_per_epoch"]


def iterations_per_epoch(n_examples: int, batch_size: int) -> int:
    """ceil(n/B): every example is touched once per epoch (paper's definition
    of an epoch; the final short batch is kept, not dropped)."""
    if n_examples <= 0 or batch_size <= 0:
        raise ValueError("n_examples and batch_size must be positive")
    return -(-n_examples // batch_size)


def backprop(model, loss, params, x, y, chunks, batch: int) -> tuple[float, float]:
    """Train mode, zero ``params``, then forward, loss and backward on
    ``x[c], y[c]`` for each chunk ``c`` (a slice or an index array);
    returns (Σ loss·|c|, Σ correct) over the non-empty chunks."""
    model.train()
    for p in params:
        p.zero_grad()
    loss_sum = correct = 0.0
    for c in chunks:
        xb, yb = x[c], y[c]
        logits = model.forward(xb)
        loss_val = loss.forward(logits, yb)
        grad = loss.backward()
        if len(yb) != batch:  # x * 1.0 == x bitwise, so skipping it is exact
            grad *= len(yb) / batch
        model.backward(grad)
        if len(yb):
            loss_sum += loss_val * len(yb)
            correct += top1_accuracy(logits, yb) * len(yb)
    return loss_sum, correct
