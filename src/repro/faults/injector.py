"""Deterministic fault injection over the simulated fabric.

The injector sits inside :class:`repro.comm.fabric.SimulatedFabric` as a
send hook: for every message it decides — deterministically, from the plan
seed and a per-channel message counter — whether the frame is lost,
corrupted (checksum-detected, hence also lost), or delayed, and prices the
reliable-link recovery (ack-timeout + exponential backoff + retransmit)
into the message's arrival time.  Determinism is per *channel*: the n-th
message from rank ``src`` to rank ``dst`` always experiences the same
fault, regardless of thread interleaving, so a seeded run is exactly
reproducible.

Rank-level faults (stragglers, crashes) are queried by the communicator and
the training loop respectively.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import numpy as np

from ..comm.errors import RetransmitExhausted
from ..obs.events import publish as _publish
from ..obs.metrics import counter as _counter, get_registry as _get_registry
from .plan import FaultPlan
from .stats import FaultStats

__all__ = ["FaultInjector"]


class FaultInjector:
    """Turns a :class:`FaultPlan` into per-message and per-rank decisions."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = FaultStats()
        # per-(src, dst) message counters; each channel is written only by
        # the src thread, but defaultdict growth needs a lock
        self._counters: dict[tuple[int, int], int] = defaultdict(int)
        self._counter_lock = threading.Lock()
        self._fired_kills: set[int] = set()
        self._kill_lock = threading.Lock()

    # -- per-message faults -----------------------------------------------------
    def _channel_rng(self, src: int, dst: int) -> np.random.Generator:
        with self._counter_lock:
            n = self._counters[(src, dst)]
            self._counters[(src, dst)] = n + 1
        return np.random.default_rng((self.plan.seed, src, dst, n))

    def decide_send(self, src: int, dst: int, tag: int) -> float:
        """Extra arrival delay for this message, in simulated seconds.

        Raises :class:`RetransmitExhausted` once the original frame and all
        ``max_retries`` retransmits of it are lost (the link gives up on
        the peer); every lost frame is counted in the stats first.
        """
        plan = self.plan
        if not plan.lossy:
            return 0.0
        rng = self._channel_rng(src, dst)
        policy = plan.retransmit
        extra = 0.0

        drop_rounds = corrupt_rounds = 0
        p_loss = plan.drop_prob + plan.corrupt_prob
        if p_loss > 0.0:
            while True:
                u = rng.random()
                if u >= p_loss:
                    break  # frame delivered, ack returns
                if u < plan.drop_prob:
                    drop_rounds += 1
                else:
                    corrupt_rounds += 1
                lost = drop_rounds + corrupt_rounds
                if lost > policy.max_retries:
                    # the last lost frame's ack timeout fires, but no
                    # retransmit follows it
                    self.stats.count_loss(drop_rounds, corrupt_rounds,
                                          policy.total_delay(lost),
                                          retransmits=policy.max_retries)
                    _publish("fault.link_down", src=src, dst=dst,
                             retries=policy.max_retries, lost=lost)
                    if _get_registry().enabled:
                        _counter("faults.retransmits").inc(policy.max_retries)
                    raise RetransmitExhausted(src, dst, tag, policy.max_retries)
        lost = drop_rounds + corrupt_rounds
        if lost:
            delay = policy.total_delay(lost)
            self.stats.count_loss(drop_rounds, corrupt_rounds, delay,
                                  retransmits=lost)
            extra += delay
            _publish("fault.message_loss", src=src, dst=dst,
                     dropped=drop_rounds, corrupted=corrupt_rounds,
                     retransmit_delay_s=delay)
            if _get_registry().enabled:
                _counter("faults.retransmits").inc(lost)

        if plan.delay_prob > 0.0 and rng.random() < plan.delay_prob:
            self.stats.count_delay(plan.delay_seconds)
            extra += plan.delay_seconds
            _publish("fault.delay", src=src, dst=dst,
                     delay_s=plan.delay_seconds)
        return extra

    # -- per-rank faults --------------------------------------------------------
    def compute_multiplier(self, rank: int) -> float:
        """Straggler slowdown for ``rank`` (1.0 = healthy)."""
        return float(self.plan.stragglers.get(rank, 1.0))

    def record_straggle(self, extra_seconds: float) -> None:
        self.stats.count_straggle(extra_seconds)
        _publish("fault.straggle", extra_seconds=extra_seconds)

    def should_kill(self, rank: int, iteration: int) -> bool:
        """True exactly once per rank, at the first iteration >= the plan's
        kill point (``>=`` so a post-restore replay still fires a pending
        kill that lands inside the replayed window)."""
        target = self.plan.kills.get(rank)
        if target is None or iteration < target:
            return False
        with self._kill_lock:
            if rank in self._fired_kills:
                return False
            self._fired_kills.add(rank)
        self.stats.count_kill()
        _publish("fault.kill", rank=rank, iteration=iteration)
        if _get_registry().enabled:
            _counter("faults.kills").inc()
        return True
