"""Hierarchical (two-level) allreduce — how multi-node clusters like the
paper's Stampede-2 actually reduce gradients.

Real machines have two very different fabrics: fast intra-node links
(shared memory / NVLink) and a slower inter-node network (Omni-Path, IB).
A two-level allreduce exploits that:

1. **intra-node reduce** to a per-node leader (cheap links),
2. **inter-node allreduce** among the leaders only (the expensive fabric
   carries P/node_size-way traffic instead of P-way),
3. **intra-node broadcast** of the result.

On the simulated fabric both levels share one α-β profile, so the benefit
shows up in the *message structure* (inter-node hops drop from f(P) to
f(P/node_size)); the analytic cost model takes two profiles and exposes the
real asymmetric win, which the ablation bench sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from .collectives import (
    allreduce,
    allreduce_cost,
    allreduce_steps,
    bcast_tree,
    reduce_tree,
)
from .fabric import NetworkProfile

__all__ = ["allreduce_hierarchical", "hierarchical_cost", "node_groups"]


def node_groups(size: int, node_size: int) -> list[list[int]]:
    """Partition ranks into nodes of ``node_size`` (last may be short)."""
    if node_size <= 0:
        raise ValueError("node_size must be positive")
    return [list(range(lo, min(lo + node_size, size))) for lo in range(0, size, node_size)]


class _SubgroupComm:
    """View of a communicator restricted to a rank subset.

    Translates subgroup ranks to global ranks so the standard collective
    algorithms run unmodified on the subset; tags are offset so concurrent
    subgroups never cross-match.
    """

    def __init__(self, comm, members: list[int], tag_base: int):
        self.comm = comm
        self.members = members
        self.size = len(members)
        self.rank = members.index(comm.rank)
        self._tag_base = tag_base

    def send(self, dst: int, payload, tag: int = 0) -> None:
        self.comm.send(self.members[dst], payload, tag=self._tag_base + tag)

    def recv(self, src: int, tag: int = 0):
        return self.comm.recv(self.members[src], tag=self._tag_base + tag)


def allreduce_hierarchical(
    comm,
    array: np.ndarray,
    node_size: int,
    inter_algorithm: str = "ring",
    tag: int = 0,
) -> np.ndarray:
    """Two-level allreduce over nodes of ``node_size`` ranks.

    Every rank calls this collectively (same arguments).  Returns the global
    sum, bit-identical on every rank.
    """
    groups = node_groups(comm.size, node_size)
    leaders = [g[0] for g in groups]
    allreduce_steps(inter_algorithm, len(leaders))  # fail fast, on every rank
    my_group = next(g for g in groups if comm.rank in g)
    local = _SubgroupComm(comm, my_group, tag_base=tag)

    # 1) intra-node reduce to the node leader (subgroup rank 0)
    reduced = reduce_tree(local, array, root=0, tag=0)

    # 2) inter-node allreduce among leaders
    if comm.rank == my_group[0]:
        if len(leaders) > 1:
            leader_comm = _SubgroupComm(comm, leaders, tag_base=tag + 4)
            reduced = allreduce(leader_comm, reduced, inter_algorithm, tag=0)
        total = reduced
    else:
        total = None

    # 3) intra-node broadcast of the global sum
    return bcast_tree(local, total, root=0, tag=2)


def hierarchical_cost(
    p: int,
    nbytes: int,
    node_size: int,
    intra: NetworkProfile,
    inter: NetworkProfile,
    inter_algorithm: str = "ring",
) -> float:
    """Analytic critical path of the two-level scheme with asymmetric links.

    intra reduce (log₂ node_size hops on the fast fabric) + inter allreduce
    among ⌈P/node_size⌉ leaders on the slow fabric + intra broadcast.
    """
    if p <= 1:
        return 0.0
    nodes = math.ceil(p / node_size)
    within = min(node_size, p)
    lg = math.ceil(math.log2(within)) if within > 1 else 0
    intra_cost = 2 * lg * intra.transfer_time(nbytes)  # reduce + bcast
    inter_cost = allreduce_cost(nodes, nbytes, inter, inter_algorithm)
    return intra_cost + inter_cost
