"""Checkpoint-restart on the simulated cluster: resumed == uninterrupted."""

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.core import LARS, SGD, ConstantLR
from repro.data import gaussian_blobs
from repro.nn.models import mlp

_X, _Y = gaussian_blobs(96, num_classes=3, dim=6, seed=91)
SEED = 33


def builder():
    return mlp(6, [8], 3, seed=SEED)


def sgd_builder(params):
    return SGD(params, momentum=0.9, weight_decay=0.0005)


def lars_builder(params):
    return LARS(params, trust_coefficient=0.02, momentum=0.9, weight_decay=0.0005)


def run(opt_builder, epochs, start_epoch=0, init_model=None, init_opt=None):
    config = SyncSGDConfig(world=2, epochs=epochs, batch_size=32,
                           shuffle_seed=SEED, start_epoch=start_epoch,
                           initial_model_state=init_model,
                           initial_optimizer_state=init_opt)
    return train_sync_sgd(builder, opt_builder, ConstantLR(0.1),
                          _X, _Y, _X[:32], _Y[:32], config)


@pytest.mark.parametrize("opt_builder", [sgd_builder, lars_builder],
                         ids=["sgd", "lars"])
def test_resume_matches_uninterrupted(opt_builder):
    straight = run(opt_builder, epochs=4)
    first_half = run(opt_builder, epochs=2)
    resumed = run(opt_builder, epochs=4, start_epoch=2,
                  init_model=first_half.final_state,
                  init_opt=first_half.final_optimizer_state)
    for k in straight.final_state:
        assert np.allclose(resumed.final_state[k], straight.final_state[k],
                           atol=1e-12), k


def test_resume_without_optimizer_state_differs():
    """Momentum matters: dropping the optimiser state changes the result."""
    straight = run(sgd_builder, epochs=4)
    first_half = run(sgd_builder, epochs=2)
    cold = run(sgd_builder, epochs=4, start_epoch=2,
               init_model=first_half.final_state)
    diff = max(np.abs(cold.final_state[k] - straight.final_state[k]).max()
               for k in straight.final_state)
    assert diff > 1e-9


def test_resume_history_covers_remaining_epochs():
    first_half = run(sgd_builder, epochs=2)
    resumed = run(sgd_builder, epochs=5, start_epoch=2,
                  init_model=first_half.final_state,
                  init_opt=first_half.final_optimizer_state)
    assert [h.epoch for h in resumed.history] == [3, 4, 5]


def test_invalid_start_epoch():
    with pytest.raises(ValueError):
        SyncSGDConfig(world=2, epochs=3, batch_size=8, start_epoch=3)


def test_roundtrip_through_npz(tmp_path):
    """The cluster snapshot survives util.checkpoint serialisation."""
    from repro.util import load_checkpoint, save_checkpoint

    first_half = run(sgd_builder, epochs=2)
    # materialise into a model+optimizer, save, reload
    model = builder()
    model.load_state_dict(first_half.final_state)
    opt = sgd_builder(model.parameters())
    opt.load_state_dict(first_half.final_optimizer_state)
    path = tmp_path / "cluster.npz"
    save_checkpoint(path, model, opt, iteration=6)

    model2 = builder()
    opt2 = sgd_builder(model2.parameters())
    assert load_checkpoint(path, model2, opt2) == 6

    resumed = run(sgd_builder, epochs=4, start_epoch=2,
                  init_model=model2.state_dict(),
                  init_opt=opt2.state_dict())
    straight = run(sgd_builder, epochs=4)
    for k in straight.final_state:
        assert np.allclose(resumed.final_state[k], straight.final_state[k],
                           atol=1e-12)


@pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
def test_recovery_is_a_resumed_run(algorithm):
    """A run killed after epoch 2's snapshot ends bitwise equal to a
    fault-free run to epoch 2 at P ranks chained into a run resumed from
    its states at P−1 ranks (rhd falls back to the tree at 3 ranks)."""
    from repro.faults import FaultPlan

    world, ipe = 4, 96 // 32

    def run_at(world, algorithm, epochs, **kwargs):
        config = SyncSGDConfig(world=world, epochs=epochs, batch_size=32,
                               algorithm=algorithm, shuffle_seed=SEED, **kwargs)
        return train_sync_sgd(builder, lars_builder, ConstantLR(0.1),
                              _X, _Y, _X[:32], _Y[:32], config)

    recovered = run_at(world, algorithm, 4,
                       fault_plan=FaultPlan(kills={1: 2 * ipe + 1}))
    assert recovered.recoveries == 1
    assert recovered.fault_reports[0].restarted_from_epoch == 2
    first = run_at(world, algorithm, 2)
    resumed = run_at(world - 1, "tree" if algorithm == "rhd" else algorithm, 4,
                     start_epoch=2, initial_model_state=first.final_state,
                     initial_optimizer_state=first.final_optimizer_state)
    for k in resumed.final_state:
        assert recovered.final_state[k].tobytes() == resumed.final_state[k].tobytes(), k
    ours, theirs = recovered.final_optimizer_state, resumed.final_optimizer_state
    assert ours["step_count"] == theirs["step_count"]
    for a, b in zip(ours["state"], theirs["state"], strict=True):
        assert {k: np.asarray(v).tobytes() for k, v in a.items()} == {
            k: np.asarray(v).tobytes() for k, v in b.items()}
    assert [h.test_accuracy for h in recovered.history] == [
        h.test_accuracy for h in first.history + resumed.history]
