"""Checkpointing: save/restore model + optimiser state as a single ``.npz``.

The format is flat and numpy-native so checkpoints written by the serial
trainer restore into cluster replicas and vice versa:

* ``param/<name>``      — parameter values,
* ``opt/<i>/<key>``     — per-parameter optimiser state arrays,
* ``meta/…``            — step counter, scalar state entries, and an
  optional serialised RNG state (``meta/rng_state``) so a resumed run can
  continue its random stream bit-identically.

Writes are *atomic*: the archive is written to ``<path>.tmp`` and renamed
into place with :func:`os.replace`, so a crash mid-save (the exact scenario
the fault-tolerant cluster trainer recovers from) can never leave a
truncated ``.npz`` that poisons the subsequent restore.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..core.optimizer import Optimizer
from ..nn.layers.base import Module

__all__ = ["save_checkpoint", "load_checkpoint", "load_rng_state"]


def _encode_rng_state(rng: np.random.Generator) -> np.ndarray:
    """Serialise a Generator's bit-generator state into a uint8 array."""
    payload = json.dumps(rng.bit_generator.state).encode("utf-8")
    return np.frombuffer(payload, dtype=np.uint8).copy()


def _decode_rng_state(arr: np.ndarray) -> dict:
    return json.loads(arr.tobytes().decode("utf-8"))


def save_checkpoint(
    path: str | os.PathLike,
    model: Module,
    optimizer: Optimizer | None = None,
    iteration: int = 0,
    rng: np.random.Generator | None = None,
) -> None:
    """Atomically write model (and optionally optimiser) state to ``path``.

    ``rng`` snapshots a live random generator (e.g. a data-augmentation
    stream) into ``meta/rng_state``; restore it with
    :func:`load_checkpoint`'s ``rng`` argument or :func:`load_rng_state`.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        if not name:
            raise ValueError("all parameters must be named (call assign_names)")
        arrays[f"param/{name}"] = value
    arrays["meta/iteration"] = np.array(iteration, dtype=np.int64)
    if rng is not None:
        arrays["meta/rng_state"] = _encode_rng_state(rng)
    if optimizer is not None:
        snap = optimizer.state_dict()
        arrays["meta/step_count"] = np.array(snap["step_count"], dtype=np.int64)
        for i, st in enumerate(snap["state"]):
            for key, val in st.items():
                arrays[f"opt/{i}/{key}"] = np.asarray(val)

    # write-then-rename: readers either see the old complete checkpoint or
    # the new complete one, never a torn write
    final = os.fspath(path)
    if not final.endswith(".npz"):  # np.savez's extension convention
        final += ".npz"
    tmp = final + ".tmp"
    os.makedirs(os.path.dirname(final) or ".", exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(
    path: str | os.PathLike,
    model: Module,
    optimizer: Optimizer | None = None,
    rng: np.random.Generator | None = None,
) -> int:
    """Restore state saved by :func:`save_checkpoint`; returns the saved
    iteration counter.  Parameter names/shapes must match the model.

    Passing ``rng`` restores the saved ``meta/rng_state`` into it in place
    (raises ``KeyError`` if the checkpoint carries none).
    """
    with np.load(os.fspath(path), allow_pickle=False) as data:
        params = {
            key[len("param/"):]: data[key]
            for key in data.files
            if key.startswith("param/")
        }
        model.load_state_dict(params)
        iteration = int(data["meta/iteration"])
        if rng is not None:
            if "meta/rng_state" not in data.files:
                raise KeyError("checkpoint has no RNG state")
            rng.bit_generator.state = _decode_rng_state(data["meta/rng_state"])
        if optimizer is not None:
            if "meta/step_count" not in data.files:
                raise KeyError("checkpoint has no optimiser state")
            state: list[dict] = [dict() for _ in optimizer.params]
            for key in data.files:
                if not key.startswith("opt/"):
                    continue
                _, idx, name = key.split("/", 2)
                arr = data[key]
                state[int(idx)][name] = (
                    int(arr) if arr.ndim == 0 and name == "t" else arr.copy()
                )
            optimizer.load_state_dict(
                {"step_count": int(data["meta/step_count"]), "state": state}
            )
    return iteration


def load_rng_state(path: str | os.PathLike) -> np.random.Generator | None:
    """Reconstruct the generator whose state a checkpoint carries
    (``None`` if it has no ``meta/rng_state``)."""
    with np.load(os.fspath(path), allow_pickle=False) as data:
        if "meta/rng_state" not in data.files:
            return None
        state = _decode_rng_state(data["meta/rng_state"])
    bitgen = getattr(np.random, state["bit_generator"])()
    bitgen.state = state
    return np.random.Generator(bitgen)
