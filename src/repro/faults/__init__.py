"""``repro.faults`` — deterministic fault injection and accounting.

The pieces, bottom-up:

* :class:`FaultPlan` — declarative, seedable description of what goes
  wrong (message loss/corruption/delay, stragglers, rank crashes);
* :class:`FaultInjector` — turns a plan into deterministic per-message and
  per-rank decisions, installed as a hook inside
  :class:`repro.comm.SimulatedFabric`;
* :class:`FaultStats` — what the faults cost (events and simulated
  seconds), surfaced on :class:`repro.cluster.ClusterResult`;
* :class:`FaultReport` / :class:`TrainingAborted` — structured post-mortem
  when a run recovers from, or dies to, an unsurvivable fault.

Recovery itself (the transport dead set, deadlock detection,
checkpoint-restore with P−1 ranks) lives in :mod:`repro.comm` and :mod:`repro.cluster.sync_sgd`;
see ``docs/architecture.md`` ("Failure model & recovery").
"""

from .injector import FaultInjector
from .plan import FaultPlan
from .stats import FaultReport, FaultStats, TrainingAborted

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "FaultReport",
    "TrainingAborted",
]
