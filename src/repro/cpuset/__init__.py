"""CPU-set substrate.

The DROM interface of the paper manipulates Linux ``cpu_set_t`` bitsets
(CPUSETs) through an opaque ``dlb_cpu_set_t`` type.  This subpackage provides
the Python equivalent used throughout the reproduction:

* :class:`~repro.cpuset.mask.CpuSet` — an immutable bitset of logical CPU ids
  with the full set algebra (union, intersection, difference, subset tests).
* :class:`~repro.cpuset.topology.NodeTopology` /
  :class:`~repro.cpuset.topology.ClusterTopology` — hardware descriptions
  (sockets, cores per socket, memory, memory bandwidth) modelled after the
  MareNostrum III nodes used in the paper's evaluation.
* :mod:`~repro.cpuset.distribution` — the mask-distribution policies the
  DROM-enabled SLURM ``task/affinity`` plugin applies when co-allocating jobs
  (equipartition, socket-aware placement, proportional shares).
"""

from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import ClusterTopology, NodeTopology, Socket
from repro.cpuset.distribution import (
    DistributionPolicy,
    EquipartitionPolicy,
    PackedPolicy,
    ProportionalPolicy,
    SocketAwareEquipartition,
)

__all__ = [
    "CpuSet",
    "NodeTopology",
    "ClusterTopology",
    "Socket",
    "DistributionPolicy",
    "EquipartitionPolicy",
    "SocketAwareEquipartition",
    "PackedPolicy",
    "ProportionalPolicy",
]
