"""Serial trainer tests: determinism, convergence, iteration accounting."""

import numpy as np
import pytest

from repro.cluster import epoch_permutation
from repro.core import SGD, ConstantLR, Trainer, iterations_per_epoch
from repro.nn.models import mlp


_CENTRES = np.random.default_rng(99).normal(size=(3, 6)) * 3


def toy_problem(n=120, d=6, k=3, seed=0):
    """Linearly separable-ish Gaussian blobs (shared class centres)."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, size=n)
    x = _CENTRES[y, :d] + rng.normal(size=(n, d))
    return x, y


def make_trainer(seed=0, lr=0.1):
    model = mlp(6, [16], 3, seed=seed)
    opt = SGD(model.parameters(), momentum=0.9, weight_decay=0.0001)
    return Trainer(model, opt, ConstantLR(lr), shuffle_seed=seed)


def test_iterations_per_epoch_ceil():
    assert iterations_per_epoch(1_281_167, 32768) == 40
    assert iterations_per_epoch(100, 32) == 4
    assert iterations_per_epoch(96, 32) == 3


def test_iterations_per_epoch_invalid():
    with pytest.raises(ValueError):
        iterations_per_epoch(0, 32)
    with pytest.raises(ValueError):
        iterations_per_epoch(100, 0)


def test_training_reduces_loss_and_learns():
    x, y = toy_problem()
    xt, yt = toy_problem(seed=1)
    trainer = make_trainer()
    result = trainer.fit(x, y, xt, yt, epochs=15, batch_size=32)
    assert result.history[-1].train_loss < result.history[0].train_loss
    assert result.final_test_accuracy > 0.8


def test_determinism_same_seed():
    x, y = toy_problem()
    r1 = make_trainer(seed=3).fit(x, y, x, y, epochs=3, batch_size=16)
    r2 = make_trainer(seed=3).fit(x, y, x, y, epochs=3, batch_size=16)
    assert [h.train_loss for h in r1.history] == [h.train_loss for h in r2.history]


def test_epoch_iteration_count():
    x, y = toy_problem(n=100)
    result = make_trainer().fit(x, y, x, y, epochs=2, batch_size=32)
    assert all(r.iterations == 4 for r in result.history)
    assert result.total_iterations == 8


def test_peak_vs_final_accuracy():
    from repro.core import TrainResult
    from repro.core.metrics import EpochRecord

    res = TrainResult(history=[
        EpochRecord(1, 1.0, 0.3, 0.5, 0.1, 10),
        EpochRecord(2, 0.8, 0.5, 0.9, 0.1, 10),
        EpochRecord(3, 0.7, 0.6, 0.7, 0.1, 10),
    ])
    assert res.peak_test_accuracy == 0.9
    assert res.final_test_accuracy == 0.7
    assert res.epochs_to_accuracy(0.85) == 2
    assert res.epochs_to_accuracy(0.95) is None


def test_empty_result_defaults():
    from repro.core import TrainResult

    res = TrainResult()
    assert res.final_test_accuracy == 0.0
    assert res.peak_test_accuracy == 0.0


def test_float_schedule_accepted():
    x, y = toy_problem(n=32)
    model = mlp(6, [8], 3, seed=0)
    trainer = Trainer(model, SGD(model.parameters()), 0.05)
    loss, acc = trainer.train_step(x, y)
    assert np.isfinite(loss) and 0 <= acc <= 1


def test_evaluate_batched_matches_full():
    x, y = toy_problem(n=100)
    trainer = make_trainer()
    full = trainer.evaluate(x, y, batch_size=1000)
    chunked = trainer.evaluate(x, y, batch_size=7)
    assert full == pytest.approx(chunked)


def test_callback_invoked_per_epoch():
    x, y = toy_problem(n=32)
    seen = []
    make_trainer().fit(x, y, x, y, epochs=3, batch_size=16,
                       callback=lambda r: seen.append(r.epoch))
    assert seen == [1, 2, 3]


def test_epoch_permutation_deterministic_and_distinct():
    """fit visits epoch e in epoch_permutation(n, e, shuffle_seed) order:
    every example once, a fresh order each epoch."""
    x, y = toy_problem(n=50)
    t = make_trainer(seed=5)
    batches = []
    step = t.train_step

    def spy(xb, yb, **kw):
        batches.append(xb)
        return step(xb, yb, **kw)

    t.train_step = spy
    t.fit(x, y, x, y, epochs=2, batch_size=10)
    seen = [np.concatenate(batches[:5]), np.concatenate(batches[5:])]
    for epoch in range(2):
        order = epoch_permutation(50, epoch, 5)
        assert sorted(order) == list(range(50))
        assert np.array_equal(seen[epoch], x[order])
    assert not np.array_equal(seen[0], seen[1])


def make_static_trainer(seed=0, lr=0.1):
    model = mlp(6, [16], 3, seed=seed)
    opt = SGD(model.parameters(), momentum=0.9, weight_decay=0.0001)
    return Trainer(model, opt, ConstantLR(lr), shuffle_seed=seed,
                   static_memory=True)


def test_static_memory_fit_is_bitwise_identical():
    x, y = toy_problem()
    eager = make_trainer(seed=5)
    planned = make_static_trainer(seed=5)
    r_e = eager.fit(x, y, x, y, epochs=3, batch_size=32)
    r_p = planned.fit(x, y, x, y, epochs=3, batch_size=32)
    assert [h.train_loss for h in r_e.history] == [h.train_loss for h in r_p.history]
    assert [h.test_accuracy for h in r_e.history] == [h.test_accuracy for h in r_p.history]
    se, sp = eager.model.state_dict(), planned.model.state_dict()
    for k in se:
        np.testing.assert_array_equal(se[k], sp[k])


def test_static_memory_steady_state_allocates_nothing():
    x, y = toy_problem()
    trainer = make_static_trainer()
    trainer.fit(x, y, x, y, epochs=1, batch_size=32)
    trainer.train_step(x[:32], y[:32])  # settle eval-shape churn
    before = trainer.arena_stats()["bytes_allocated"]
    for _ in range(3):
        trainer.train_step(x[:32], y[:32])
    assert trainer.arena_stats()["bytes_allocated"] == before


def _allocated_per_epoch(trainer, fit):
    seen = []
    fit(lambda record: seen.append(trainer.arena_stats()["bytes_allocated"]))
    return seen


def test_static_memory_pool_is_flat_over_fit_with_shape_churn():
    # 100 examples at batch 32 leave a short batch of 4; 300 test examples
    # are evaluated at the training batch as 9 x 32 + 12: four step shapes,
    # all met in epoch 1.
    x, y = toy_problem(n=100)
    xt, yt = toy_problem(n=300, seed=1)
    trainer = make_static_trainer()
    seen = _allocated_per_epoch(trainer, lambda cb: trainer.fit(
        x, y, xt, yt, epochs=3, batch_size=32, callback=cb))
    assert seen[0] == seen[2] > 0
    assert len(trainer.memory.plans) == 4
    assert trainer.arena_stats()["pool_bytes"] == max(
        p.pool_bytes for p in trainer.memory.plans.values())


@pytest.mark.parametrize("micro_batch_size, shapes", [
    (None, {(16, True), (8, True), (16, False), (4, False)}),
    (8, {(8, True), (8, False), (4, False)}),
])
def test_static_memory_slab_is_the_largest_training_plan(micro_batch_size, shapes):
    # Evaluation runs at the largest chunk a step trains at, and an inference
    # pass needs less than a training pass at the same batch, so a test set
    # larger than the batch leaves the slab at the training plan
    # (40 = 2 x 16 + 8 training, 100 = 6 x 16 + 4 = 12 x 8 + 4 evaluation).
    from repro.nn.memory import MemoryPlan
    from repro.nn.models import micro_resnet

    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(40, 3, 8, 8)), rng.integers(0, 4, size=40)
    xt, yt = rng.normal(size=(100, 3, 8, 8)), rng.integers(0, 4, size=100)
    model = micro_resnet(num_classes=4, seed=2)
    trainer = Trainer(model, SGD(model.parameters(), momentum=0.9), 0.05,
                      static_memory=True)
    trainer.fit(x, y, xt, yt, epochs=1, batch_size=16, micro_batch_size=micro_batch_size)
    plans = trainer.memory.plans.values()
    assert {(p.batch_size, p.training) for p in plans} == shapes
    train_pool = max(
        MemoryPlan.build(model, (3, 8, 8), p.batch_size, loss=trainer.loss,
                         training=True).pool_bytes
        for p in plans if p.training)
    assert trainer.arena_stats()["pool_bytes"] == train_pool


def test_static_memory_pool_is_flat_over_batch_schedule():
    # Epoch batches 64, 32, 64 over 96 examples: shapes 64 + 32, then 3 x 32.
    x, y = toy_problem(n=96)
    trainer = make_static_trainer()
    schedule = [64, 32, 64]
    seen = _allocated_per_epoch(trainer, lambda cb: trainer.fit_with_batch_schedule(
        x, y, x, y, epochs=3, batch_schedule=schedule.__getitem__, callback=cb))
    assert seen[0] == seen[2] > 0


def test_backward_after_eval_forward_raises():
    # An inference forward keeps no backward state, so a backward after it
    # fails loudly instead of reading slab bytes the pass recycled.
    x, _ = toy_problem()
    model = make_static_trainer().model
    model.forward(x[:8])  # training forward: caches set
    model.eval()
    out = model.forward(x[:8])
    with pytest.raises(RuntimeError, match="before forward"):
        model.backward(np.ones_like(out))


def test_arena_stats_none_when_eager():
    assert make_trainer().arena_stats() is None
    stats = make_static_trainer().arena_stats()
    assert stats == {k: 0 for k in stats}  # untouched arena, all counters zero


def test_fit_zero_batch_size_raises_naming_epoch_and_size():
    x, y = toy_problem()
    trainer = make_trainer()
    with pytest.raises(ValueError, match=r"epoch 1: batch size must be positive \(got 0\)"):
        trainer.fit(x, y, x, y, epochs=2, batch_size=0)
    assert trainer.iteration == 0


def test_fit_negative_batch_size_raises_before_any_step():
    x, y = toy_problem()
    trainer = make_trainer()
    with pytest.raises(ValueError, match=r"epoch 1: batch size must be positive \(got -4\)"):
        trainer.fit(x, y, x, y, epochs=1, batch_size=-4)
    assert trainer.iteration == 0


def test_batch_schedule_returning_zero_raises_at_that_epoch():
    x, y = toy_problem()
    trainer = make_trainer()
    seen = []
    with pytest.raises(ValueError, match=r"epoch 2: batch size must be positive \(got 0\)"):
        trainer.fit_with_batch_schedule(x, y, x, y, epochs=3,
                                        batch_schedule=[40, 0, 40].__getitem__,
                                        callback=seen.append)
    assert [r.epoch for r in seen] == [1]
    assert trainer.iteration == 3


def test_train_step_on_empty_batch_names_the_batch():
    x, y = toy_problem()
    trainer = make_trainer()
    with pytest.raises(ValueError, match="empty batch") as err:
        trainer.train_step(x[:0], y[:0])
    assert "micro_batch_size" not in str(err.value)
    assert trainer.iteration == 0
