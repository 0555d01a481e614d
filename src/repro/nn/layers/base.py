"""Module base class and the Sequential container.

Design notes
------------
* **Explicit backprop.**  ``forward`` caches activations on ``self``;
  ``backward`` consumes the cache and returns the gradient w.r.t. the input
  while accumulating parameter gradients.  Each module therefore supports
  exactly one outstanding forward at a time, which is all the trainers need.
* **Shape inference.**  ``output_shape`` propagates *per-example* shapes
  (channels-first, no batch dimension).  The flop counter and the model
  builders both rely on it, so a layer must implement it even when its
  ``forward`` is trivially shape-preserving.
* **Flop accounting.**  ``flops_per_example`` counts multiply-add pairs as
  2 flops, matching the convention behind the paper's "1.5 billion flops per
  AlexNet image / 7.7 billion per ResNet-50 image" (Table 6).
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from ..tensor import Parameter

__all__ = ["Module", "Sequential"]

Shape = tuple[int, ...]


def _runs_hooks(method, phase: str):
    """Wrap a layer class's ``forward`` or ``backward`` so that each
    outermost call on an instance runs the instance's hooks around it.

    A hook is called as ``hook(module, phase, x)`` before the method and
    may return a callable, called with no arguments once the method has
    returned.  Hooks fire in registration order, once per outermost call:
    a ``super()`` call made while they are running does not fire them
    again.  Modules with no hooks pay one attribute read."""

    @functools.wraps(method)
    def wrapped(self, x, *args, **kwargs):
        hooks = self._hooks
        if not hooks or self._in_hooked_call:
            return method(self, x, *args, **kwargs)
        self._in_hooked_call = True
        try:
            afters = [hook(self, phase, x) for hook in hooks]
            y = method(self, x, *args, **kwargs)
        finally:
            self._in_hooked_call = False
        for after in afters:
            if after is not None:
                after()
        return y

    return wrapped


class Module:
    """Base class for all layers and containers."""

    #: bound memory context (class attribute: unbound modules pay nothing).
    #: It only picks the allocator: every layer has one code path, whose
    #: :meth:`_buf` requests come from the context's slab when one is bound
    #: and from ``np.empty`` when this is ``None``.
    _memory = None

    #: True on layers whose ``forward`` writes ``out`` with plain
    #: ufunc ``out=`` calls and therefore accepts a *non-contiguous* target.
    #: Only such layers may compute straight into a successor's padded-input
    #: buffer (see :meth:`input_slot`); layers that stage through
    #: ``out.reshape(...)`` (convolutions, pools) would silently write a
    #: reshape copy instead, so they keep the default ``False``.
    _fusion_source = False

    #: this instance's forward/backward hooks (see :meth:`add_hook`); the
    #: empty class default keeps hook-free modules on the fast path
    _hooks: tuple = ()
    _in_hooked_call = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for phase in ("forward", "backward"):
            if phase in vars(cls):
                setattr(cls, phase, _runs_hooks(vars(cls)[phase], phase))

    #: human-readable type name used in summaries
    def __init__(self) -> None:
        self.training = True
        self.name = ""

    # -- interface -----------------------------------------------------------
    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    # -- static memory ---------------------------------------------------------
    def bind_memory(self, memory) -> "Module":
        """Bind a :class:`repro.nn.memory.MemoryContext` to this subtree.

        From the next forward on, every descendant's buffer requests are
        served from the context's slab (after one recording pass per step
        shape) instead of fresh arrays.  This module becomes the context's
        root: a hook on it starts a pass at each of its forwards.  The
        arithmetic is the same code either way, so results stay bitwise
        identical (asserted by ``tests/nn/test_memory_parity.py``).
        Returns ``self``.
        """
        if self._memory is not None:
            self.remove_hook(self._memory.begin_hook)
        for m in self.modules():
            m._memory = memory
        memory.root = self
        return self.add_hook(memory.begin_hook)

    def unbind_memory(self) -> "Module":
        """Detach the subtree's context: buffers are freshly allocated again."""
        if self._memory is not None and self._memory.root is self:
            self._memory.root = None
            self.remove_hook(self._memory.begin_hook)
        for m in self.modules():
            vars(m).pop("_memory", None)
        return self

    def input_slot(self, x_shape, dtype) -> np.ndarray | None:
        """Buffer a producer may write this layer's input into.

        Containers delegate to the layer that actually consumes the input;
        layers that pad their input into a buffer (``Conv2D`` with
        ``padding > 0``) return its interior view so the producing layer
        computes straight into it, eliding one interior copy per step.
        ``None`` (the default) means no such buffer — the producer writes
        its own output buffer as usual.
        """
        return None

    def _buf(self, tag: str, shape, dtype=np.float64) -> np.ndarray:
        """A buffer for this call: a slab view when a memory context is
        bound (its lifetime is whatever references keep it alive), else a
        fresh array."""
        mem = self._memory
        if mem is None:
            return np.empty(shape, dtype=dtype)
        return mem.request(self, tag, shape, dtype)

    def parameters(self) -> list[Parameter]:
        """All trainable parameters in this subtree, in deterministic order."""
        params: list[Parameter] = []
        for child in self.children():
            params.extend(child.parameters())
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                params.append(attr)
        return params

    def children(self) -> Iterator["Module"]:
        """Direct submodules, in attribute insertion order."""
        for attr in vars(self).values():
            if isinstance(attr, Module):
                yield attr
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        """This module and every descendant (pre-order)."""
        yield self
        for child in self.children():
            yield from child.modules()

    def output_shape(self, input_shape: Shape) -> Shape:
        """Per-example output shape given per-example ``input_shape``."""
        raise NotImplementedError

    def flops_per_example(self, input_shape: Shape) -> int:
        """Forward flops for one example (multiply+add counted separately)."""
        return 0

    # -- conveniences ----------------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        """Switch this subtree to training mode (BN batch stats, dropout on)."""
        return self._set_mode(True)

    def eval(self) -> "Module":
        """Switch this subtree to inference mode.

        Layers keep no backward-only state from an inference forward, so a
        ``backward`` after it raises instead of reading recycled buffers.
        """
        return self._set_mode(False)

    def _set_mode(self, training: bool) -> "Module":
        if self._memory is not None and self.training != training:
            self._memory.close()  # the mode is part of a pass's key
        for m in self.modules():
            m.training = training
        return self

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def add_hook(self, hook) -> "Module":
        """Run ``hook(module, phase, x)`` before every ``forward`` and
        ``backward`` call on this module (``phase`` names the method, ``x``
        is its input).  A hook may return a callable, which runs after the
        method returns — after ``backward``, the module's parameter
        gradients for the step are final.  Hooks are per instance and fire
        in registration order.  Returns ``self``."""
        self._hooks = (*self._hooks, hook)
        return self

    def remove_hook(self, hook) -> "Module":
        """Undo one :meth:`add_hook` of ``hook`` (no-op if it is not
        installed); the module's other hooks keep firing."""
        hooks = list(self._hooks)
        if hook in hooks:
            hooks.remove(hook)
            self._hooks = tuple(hooks)
        return self

    def assign_names(self, prefix: str = "") -> None:
        """Assign dotted-path names to every parameter in the subtree.

        Called once by model constructors; the names drive LARS's
        weight/bias distinction and the cluster layer's deterministic
        parameter ordering, so they must be stable across replicas.
        """
        for attr_name, attr in vars(self).items():
            path = f"{prefix}.{attr_name}" if prefix else attr_name
            if isinstance(attr, Parameter):
                attr.name = path
            elif isinstance(attr, Module):
                attr.name = path
                attr.assign_names(path)
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        item.name = f"{path}.{i}"
                        item.assign_names(f"{path}.{i}")

    def state_dict(self) -> dict[str, np.ndarray]:
        """Name → value snapshot of every parameter (copies)."""
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict`; shapes must match."""
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            src = np.asarray(state[p.name])
            if src.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: {src.shape} vs {p.data.shape}"
                )
            p.data[...] = src

    def summary(self, input_shape: Shape) -> str:
        """Human-readable per-layer table: shapes, params, flops."""
        lines = [f"{'layer':<40}{'output shape':<20}{'params':>12}{'Mflops':>12}"]
        shape = tuple(input_shape)
        total_p = 0
        total_f = 0

        def walk(mod: Module, shape: Shape) -> Shape:
            nonlocal total_p, total_f
            if isinstance(mod, Sequential):
                for child in mod.layers:
                    shape = walk(child, shape)
                return shape
            own = sum(
                p.size for p in vars(mod).values() if isinstance(p, Parameter)
            ) + sum(c.num_parameters() for c in mod.children())
            fl = mod.flops_per_example(shape)
            out = mod.output_shape(shape)
            label = mod.name or type(mod).__name__
            lines.append(f"{label:<40}{str(out):<20}{own:>12}{fl / 1e6:>12.2f}")
            total_p += own
            total_f += fl
            return out

        walk(self, shape)
        lines.append(f"{'total':<40}{'':<20}{total_p:>12}{total_f / 1e6:>12.2f}")
        return "\n".join(lines)


class Sequential(Module):
    """Composition of layers applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: list[Module] = list(layers)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def input_slot(self, x_shape, dtype) -> np.ndarray | None:
        return self.layers[0].input_slot(x_shape, dtype) if self.layers else None

    def _layer_out_shapes(self, x_shape: tuple) -> list[tuple]:
        """Per-layer batched output shapes, memoised on the input shape."""
        cached = self.__dict__.get("_out_shape_cache")
        if cached is not None and cached[0] == x_shape:
            return cached[1]
        shapes = []
        shp = x_shape
        for layer in self.layers:
            shp = (shp[0], *layer.output_shape(tuple(shp[1:])))
            shapes.append(shp)
        self._out_shape_cache = (x_shape, shapes)
        return shapes

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        layers = self.layers
        if not layers:
            if out is None:
                return x
            np.copyto(out, x)
            return out
        # When a layer can write a non-contiguous target and its successor
        # exposes a padded-input buffer (only while a memory context is
        # bound), compute straight into that buffer's interior — the
        # successor skips its interior copy.
        shapes = self._layer_out_shapes(x.shape)
        last = len(layers) - 1
        for i, layer in enumerate(layers):
            if i == last:
                return layer.forward(x, out=out) if out is not None else layer.forward(x)
            tgt = (
                layers[i + 1].input_slot(shapes[i], np.float64)
                if layer._fusion_source
                else None
            )
            x = layer.forward(x, out=tgt) if tgt is not None else layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            for layer in reversed(self.layers):
                grad_out = layer.backward(grad_out)
            return grad_out
        if not self.layers:
            np.copyto(out, grad_out)
            return out
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        return self.layers[0].backward(grad_out, out=out)

    def output_shape(self, input_shape: Shape) -> Shape:
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def flops_per_example(self, input_shape: Shape) -> int:
        shape = tuple(input_shape)
        total = 0
        for layer in self.layers:
            total += layer.flops_per_example(shape)
            shape = layer.output_shape(shape)
        return total
