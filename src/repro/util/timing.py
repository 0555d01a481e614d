"""Profiling helpers, following the optimisation-workflow guidance:
measure first, then optimise.

:class:`Timer` is a context-manager stopwatch with accumulation;
:class:`LayerProfiler` wraps a model and records per-layer forward/backward
wall time, producing the table that tells you which layer to vectorise next.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Sequence

from ..nn.layers.base import Module, Sequential

__all__ = ["Timer", "LayerProfiler", "measure", "median", "median_abs_deviation"]


def median(samples: Sequence[float]) -> float:
    """Median of ``samples`` (robust location; benchmarks report this)."""
    if not samples:
        raise ValueError("median of empty sample set")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def median_abs_deviation(samples: Sequence[float]) -> float:
    """Median absolute deviation from the median (robust spread).

    Unlike the standard deviation, a single scheduler hiccup in one timed
    run barely moves the MAD — which is why the benchmark harness reports
    median ± MAD rather than mean ± std.
    """
    m = median(samples)
    return median(tuple(abs(s - m) for s in samples))


def measure(
    fn: Callable[[], object], repeats: int, warmup: int = 0
) -> list[float]:
    """Wall-clock samples of ``fn()``: ``warmup`` untimed runs, then
    ``repeats`` timed ones (``time.perf_counter`` deltas, in seconds)."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


class Timer:
    """Accumulating stopwatch.

    Accumulates in integer nanoseconds (``time.perf_counter_ns``), so long
    profiling sessions never lose short intervals to float absorption —
    summing many ~µs regions into a large float total silently rounds them
    away, integers never do.  ``total`` stays a float-seconds view for
    existing callers.

    >>> t = Timer()
    >>> with t:
    ...     work()
    >>> t.total, t.count, t.mean
    """

    def __init__(self) -> None:
        self.total_ns = 0
        self.count = 0
        self._start: int | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.total_ns += time.perf_counter_ns() - self._start
        self.count += 1
        self._start = None

    @property
    def total(self) -> float:
        """Accumulated seconds (float view of :attr:`total_ns`)."""
        return self.total_ns * 1e-9

    @property
    def mean(self) -> float:
        """Mean seconds per timed region."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Zero the accumulated time and count."""
        self.total_ns = 0
        self.count = 0


class LayerProfiler:
    """Per-layer forward/backward timing for a :class:`Sequential` model.

    Wraps each layer's ``forward``/``backward`` in place; call
    :meth:`report` after running some steps and :meth:`unwrap` to restore.

    When ``tracer`` is given (a :class:`repro.obs.Tracer`), every wrapped
    call additionally emits a ``layer.forward``/``layer.backward`` span, so
    the per-layer table and the Chrome-trace timeline come from one wrapping
    of the model.  Span emission costs one attribute check per call while
    the tracer is disabled.
    """

    def __init__(self, model: Sequential, tracer=None):
        if not isinstance(model, Sequential):
            raise TypeError("LayerProfiler expects a Sequential model")
        self.model = model
        self.tracer = tracer
        self.forward_time: dict[str, Timer] = defaultdict(Timer)
        self.backward_time: dict[str, Timer] = defaultdict(Timer)
        self._originals: list[tuple[Module, object, object]] = []
        self._wrap()

    def _label(self, idx: int, layer: Module) -> str:
        return f"{idx:02d}:{layer.name or type(layer).__name__}"

    def _wrap(self) -> None:
        for idx, layer in enumerate(self.model.layers):
            label = self._label(idx, layer)
            fwd, bwd = layer.forward, layer.backward
            self._originals.append((layer, fwd, bwd))

            # ``out=`` passes through: containers hand it to a layer that
            # computes into a caller's buffer (e.g. a fused padded input).
            def timed_fwd(x, out=None, _f=fwd, _l=label):
                tr = self.tracer
                if tr is not None and tr.enabled:
                    with tr.span("layer.forward", layer=_l), self.forward_time[_l]:
                        return _f(x, out=out)
                with self.forward_time[_l]:
                    return _f(x, out=out)

            def timed_bwd(g, out=None, _b=bwd, _l=label):
                tr = self.tracer
                if tr is not None and tr.enabled:
                    with tr.span("layer.backward", layer=_l), self.backward_time[_l]:
                        return _b(g, out=out)
                with self.backward_time[_l]:
                    return _b(g, out=out)

            layer.forward = timed_fwd
            layer.backward = timed_bwd

    def unwrap(self) -> None:
        """Restore the original methods."""
        for layer, fwd, bwd in self._originals:
            layer.forward = fwd
            layer.backward = bwd
        self._originals.clear()

    def report(self) -> str:
        """Per-layer table sorted by total time, slowest first."""
        rows = []
        for label in self.forward_time:
            f = self.forward_time[label]
            b = self.backward_time.get(label, Timer())
            rows.append((label, f.total, b.total, f.total + b.total))
        rows.sort(key=lambda r: -r[3])
        lines = [f"{'layer':<28}{'fwd_s':>10}{'bwd_s':>10}{'total_s':>10}"]
        for label, ft, bt, tot in rows:
            lines.append(f"{label:<28}{ft:>10.4f}{bt:>10.4f}{tot:>10.4f}")
        total = sum(r[3] for r in rows)
        lines.append(f"{'TOTAL':<28}{'':>10}{'':>10}{total:>10.4f}")
        return "\n".join(lines)

    def hotspot(self) -> str | None:
        """Label of the most expensive layer so far."""
        if not self.forward_time:
            return None
        return max(
            self.forward_time,
            key=lambda l: self.forward_time[l].total
            + self.backward_time.get(l, Timer()).total,
        )
