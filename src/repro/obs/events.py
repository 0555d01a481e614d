"""Event bus: fault, recovery, and checkpoint activity on one timeline.

The failure machinery (injector, elastic restart) and the checkpoint path
each kept their own private accounting; this bus gives them one
publication point so a fault shows up *in the same trace* as the
compute it perturbed — the view you need to answer "why was iteration 412
slow" (a retransmit storm looks identical to a straggler in aggregate
counters, and completely different on a timeline).

``publish(kind, **fields)`` is a no-op on a single attribute check while
observability is disabled.  When enabled, each event is timestamped,
appended to a bounded ring buffer, forwarded to every subscriber, and —
when tracing is also on — mirrored into the tracer as an instant mark so
it lands in the exported Chrome trace.

Event kinds published by the instrumented paths
-----------------------------------------------
``fault.message_loss``     frame(s) lost/corrupted; retransmit delay priced
``fault.delay``            injected network delay
``fault.straggle``         straggler multiplier stretched a compute phase
``fault.kill``             a rank's fail-stop crash fired
``fault.link_down``        retransmit budget exhausted, link declared dead
``checkpoint.save``        recovery snapshot captured (and optionally on disk)
``recovery.restart``       elastic restart with the surviving ranks
``recovery.abort``         failed step could not be recovered; job aborted
``trainer.epoch``          serial-trainer epoch boundary (loss/accuracy)
``cluster.epoch``          sync-SGD epoch boundary (accuracy, simulated time)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from . import trace as _trace

__all__ = ["Event", "EventBus", "get_event_bus", "set_event_bus",
           "publish", "subscribe", "unsubscribe"]


@dataclass(frozen=True)
class Event:
    """One published occurrence: a kind, a wall-clock stamp, and fields."""

    kind: str
    time_ns: int
    fields: dict = field(default_factory=dict)


class EventBus:
    """Bounded, thread-safe publish/subscribe hub.

    Parameters
    ----------
    enabled:
        Initial state of the single-branch fast-path switch.
    maxlen:
        Ring-buffer capacity; the oldest events fall off first, so a noisy
        fault sweep cannot exhaust memory.
    """

    def __init__(self, enabled: bool = False, maxlen: int = 10_000):
        self.enabled = bool(enabled)
        self._events: deque[Event] = deque(maxlen=maxlen)
        self._subscribers: list[Callable[[Event], None]] = []
        self._lock = threading.Lock()

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[Event], None]:
        """Register ``fn`` to be called synchronously on every publish."""
        with self._lock:
            self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        with self._lock:
            try:
                self._subscribers.remove(fn)
            except ValueError:
                pass

    def publish(self, kind: str, **fields) -> Event | None:
        """Record and fan out one event (no-op while disabled)."""
        if not self.enabled:
            return None
        ev = Event(kind=kind, time_ns=time.perf_counter_ns(), fields=fields)
        with self._lock:
            self._events.append(ev)
            subscribers = list(self._subscribers)
        # mirror into the trace timeline so Perfetto shows the fault mark
        # nested among the spans it interrupted
        _trace.instant(kind, **fields)
        for fn in subscribers:
            fn(ev)
        return ev

    def events(self, kind: str | None = None) -> list[Event]:
        """Snapshot of buffered events, optionally filtered by kind prefix."""
        with self._lock:
            evs = list(self._events)
        if kind is None:
            return evs
        return [e for e in evs if e.kind == kind or e.kind.startswith(kind + ".")]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


_BUS = EventBus(enabled=False)


def get_event_bus() -> EventBus:
    """The process-wide bus the fault/checkpoint paths publish to."""
    return _BUS


def set_event_bus(bus: EventBus) -> EventBus:
    """Swap the process-wide bus (returns the previous one)."""
    global _BUS
    prev, _BUS = _BUS, bus
    return prev


def publish(kind: str, **fields) -> Event | None:
    """Publish on the default bus; single-branch no-op while disabled."""
    bus = _BUS
    if not bus.enabled:
        return None
    return bus.publish(kind, **fields)


def subscribe(fn: Callable[[Event], None]) -> Callable[[Event], None]:
    return _BUS.subscribe(fn)


def unsubscribe(fn: Callable[[Event], None]) -> None:
    _BUS.unsubscribe(fn)
