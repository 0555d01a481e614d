"""Profiling helpers, following the optimisation-workflow guidance:
measure first, then optimise.

:class:`Timer` is a context-manager stopwatch with accumulation;
:class:`LayerProfiler` hooks a model's layers and records per-layer
forward/backward wall time, producing the table that tells you which layer
to vectorise next.
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

    Puts a hook on each layer (:meth:`repro.nn.layers.base.Module.add_hook`)
    that times its outermost ``forward``/``backward`` calls, so it composes
    with every other hook — the overlapped exchange's gradient-ready hooks
    and the memory context's pass hook — in any order.  Call :meth:`report`
    after running some steps and :meth:`unwrap` to remove the hooks.

    When ``tracer`` is given (a :class:`repro.obs.Tracer`), every timed
    call additionally emits a ``layer.forward``/``layer.backward`` span, so
    the per-layer table and the Chrome-trace timeline come from one set of
    hooks.  Span emission costs one attribute check per call while the
    tracer is disabled.
    """

    def __init__(self, model: Sequential, tracer=None):
        if not isinstance(model, Sequential):
            raise TypeError("LayerProfiler expects a Sequential model")
        self.model = model
        self.tracer = tracer
        self.forward_time: dict[str, Timer] = defaultdict(Timer)
        self.backward_time: dict[str, Timer] = defaultdict(Timer)
        self._hooked: list[tuple[Module, Callable]] = []
        for idx, layer in enumerate(model.layers):
            hook = self._hook(f"{idx:02d}:{layer.name or type(layer).__name__}")
            layer.add_hook(hook)
            self._hooked.append((layer, hook))

    def _hook(self, label: str) -> Callable:
        def hook(module, phase, x):
            timer = (self.forward_time if phase == "forward"
                     else self.backward_time)[label]
            tr = self.tracer
            if tr is None or not tr.enabled:
                timer.__enter__()
                return timer.__exit__
            span = tr.span(f"layer.{phase}", layer=label)
            timer.__enter__()

            def after():
                timer.__exit__()
                span.__exit__(None, None, None)

            return after

        return hook

    def unwrap(self) -> None:
        """Remove the timing hooks (the layers' other hooks stay)."""
        for layer, hook in self._hooked:
            layer.remove_hook(hook)
        self._hooked.clear()

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
