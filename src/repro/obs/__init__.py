"""repro.obs — telemetry: tracing, metrics, events, console.

The paper's headline claims are wall-clock claims, and validating them
requires seeing where each iteration's time goes — compute vs. allreduce
vs. straggler wait, the breakdown Goyal et al. 2017 and Akiba et al. 2017
publish alongside their scaling results.  This package is the cross-cutting
layer that produces that breakdown for every engine in the repo:

:mod:`repro.obs.trace`
    Nested span tracer with a Chrome trace-event exporter
    (``chrome://tracing`` / Perfetto); instrumented across the serial
    trainer, the sync-SGD worker loop, the collectives, and the loader.
:mod:`repro.obs.metrics`
    Counter/Gauge/Histogram/Timer registry with labeled series,
    log-spaced latency buckets, and JSON/CSV snapshot export.
:mod:`repro.obs.events`
    Event bus the fault injector and the recovery and checkpoint-restore
    paths publish to; events mirror into the trace as instant marks.
:mod:`repro.obs.console`
    Level-filtered stdout/stderr writer behind the CLI's
    ``--quiet``/``--verbose`` flags.

Everything is **opt-in behind one switch**: :func:`enable` /
:func:`disable` (or ``repro train --trace ...`` on the CLI).  Disabled,
every instrumentation point collapses to a single attribute check — the
``obs.span.disabled`` microbenchmark and the bench CI gate enforce the
"near-zero overhead" contract (train-step regression < 3 %).
"""

from __future__ import annotations

import time

from . import console, events, metrics, trace
from .console import Console, configure_verbosity, get_console
from .events import Event, EventBus, get_event_bus, publish
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimerMetric,
    counter,
    gauge,
    get_registry,
    histogram,
    log_spaced_buckets,
    observe,
)
from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    get_tracer,
    instant,
    set_tracer,
    span,
    validate_chrome_trace,
)

__all__ = [
    "trace", "metrics", "events", "console",
    "Tracer", "Span", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "TimerMetric", "EventBus", "Event", "Console",
    "enable", "disable", "is_enabled", "reset",
    "span", "instant", "timed", "counter", "gauge", "histogram", "observe",
    "publish", "get_tracer", "set_tracer", "get_registry", "get_event_bus", "get_console",
    "configure_verbosity", "log_spaced_buckets", "validate_chrome_trace",
    "export_trace", "export_metrics",
]


# module aliases so enable()'s keyword names can mirror the component names
_trace_mod, _metrics_mod, _events_mod = trace, metrics, events


def enable(tracing: bool = True, metrics: bool = True, events: bool = True) -> None:
    """Switch the telemetry subsystem on component by component.

    ``obs.enable()`` turns everything on; ``obs.enable(tracing=False)``
    records metrics and events without buffering spans, etc.
    """
    _trace_mod.get_tracer().enabled = bool(tracing)
    _metrics_mod.get_registry().enabled = bool(metrics)
    _events_mod.get_event_bus().enabled = bool(events)


def disable() -> None:
    """Switch every telemetry component off (the default state)."""
    trace.get_tracer().enabled = False
    metrics.get_registry().enabled = False
    events.get_event_bus().enabled = False


def is_enabled() -> bool:
    """True when any telemetry component is recording."""
    return (
        trace.get_tracer().enabled
        or metrics.get_registry().enabled
        or events.get_event_bus().enabled
    )


def reset() -> None:
    """Drop all recorded spans, metric series, and buffered events."""
    trace.get_tracer().clear()
    metrics.get_registry().reset()
    events.get_event_bus().clear()


class _TimedSpan:
    """Span *and* latency-histogram observation in one context manager.

    The histogram series is ``<name>_s`` (seconds) with optional low-
    cardinality ``hist_labels`` — span attributes like ``iteration`` stay
    out of the metric key space so a long run cannot explode the registry.
    """

    __slots__ = ("_name", "_hist_labels", "_cm", "_start_ns", "_registry")

    def __init__(self, tracer, registry, name, hist_labels, attrs):
        self._name = name
        self._hist_labels = hist_labels
        self._registry = registry if registry.enabled else None
        self._cm = tracer.span(name, **attrs) if tracer.enabled else None
        self._start_ns = 0

    def __enter__(self) -> "_TimedSpan":
        if self._cm is not None:
            self._cm.__enter__()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = (time.perf_counter_ns() - self._start_ns) * 1e-9
        if self._registry is not None:
            self._registry.histogram(
                self._name + "_s", **(self._hist_labels or {})
            ).observe(elapsed)
        if self._cm is not None:
            self._cm.__exit__(exc_type, exc, tb)
        return False


def timed(name: str, hist_labels: dict | None = None, **attrs):
    """Time a region into both the trace and the ``<name>_s`` histogram.

    No-op (shared null context manager) when both tracing and metrics are
    disabled — this is the one helper the hot paths call.
    """
    tracer = trace.get_tracer()
    registry = metrics.get_registry()
    if not (tracer.enabled or registry.enabled):
        return NULL_SPAN
    return _TimedSpan(tracer, registry, name, hist_labels, attrs)


def export_trace(path: str, thread_names: dict[int, str] | None = None) -> None:
    """Write the default tracer's Chrome trace-event JSON to ``path``."""
    trace.get_tracer().export_chrome(path, thread_names=thread_names)


def export_metrics(path: str, fmt: str = "json") -> None:
    """Write the default registry snapshot to ``path`` (``json`` or ``csv``)."""
    if fmt == "json":
        metrics.get_registry().to_json(path)
    elif fmt == "csv":
        metrics.get_registry().to_csv(path)
    else:
        raise ValueError(f"unknown metrics format {fmt!r}; expected json or csv")
