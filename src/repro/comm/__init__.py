"""``repro.comm`` — simulated MPI substrate.

A thread-per-rank message-passing fabric with α-β cost accounting and
mpi4py-style communicators; the cluster-scale experiments run on this.
"""

from .clock import LogicalClock
from .collectives import (
    ALLREDUCE_ALGORITHMS,
    allgather_ring,
    allreduce_cost,
    allreduce_message_count,
    allreduce_rhd,
    allreduce_ring,
    allreduce_tree,
    barrier_dissemination,
    bcast_cost,
    bcast_tree,
    hierarchical_cost,
    reduce_cost,
    reduce_tree,
)
from .communicator import Communicator, run_cluster
from .errors import (
    ClusterHalted,
    FabricTimeout,
    PeerDeadError,
    RankKilled,
    RetransmitExhausted,
)
from .fabric import Envelope, FabricStats, NetworkProfile, SimulatedFabric
from .nonblocking import AllreduceRequest, RecvRequest, Request, SendRequest
from .reliable import RetransmitPolicy

__all__ = [
    "LogicalClock",
    "NetworkProfile",
    "SimulatedFabric",
    "FabricStats",
    "Envelope",
    "Communicator",
    "run_cluster",
    "FabricTimeout",
    "PeerDeadError",
    "ClusterHalted",
    "RetransmitExhausted",
    "RankKilled",
    "RetransmitPolicy",
    "Request",
    "SendRequest",
    "RecvRequest",
    "AllreduceRequest",
    "ALLREDUCE_ALGORITHMS",
    "allreduce_tree",
    "allreduce_ring",
    "allreduce_rhd",
    "allgather_ring",
    "bcast_tree",
    "reduce_tree",
    "barrier_dissemination",
    "allreduce_cost",
    "hierarchical_cost",
    "allreduce_message_count",
    "bcast_cost",
    "reduce_cost",
]
