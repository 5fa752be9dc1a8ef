"""Hardware topology models.

The paper's evaluation runs on MareNostrum III (MN3) nodes: two Intel
SandyBridge sockets with eight cores each and 128 GB of DDR3 memory per node.
The DROM-enabled SLURM plugin distributes CPUs *per socket* to preserve data
locality, and the STREAM workload saturates the node memory bandwidth, so the
topology model carries sockets, cores and an aggregate memory-bandwidth figure
in addition to the plain CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.cpuset.mask import CpuSet


@dataclass(frozen=True)
class Socket:
    """One CPU socket: a contiguous range of logical CPUs sharing a memory bus."""

    index: int
    cpus: CpuSet
    #: Sustainable memory bandwidth of this socket in GB/s.  MN3 SandyBridge
    #: sockets sustain roughly 40 GB/s with all channels populated.
    memory_bandwidth_gbs: float = 40.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("socket index must be non-negative")
        if self.cpus.is_empty():
            raise ValueError("socket must contain at least one CPU")


@dataclass(frozen=True)
class NodeTopology:
    """A compute node: a list of sockets plus memory capacity.

    The default constructor :meth:`marenostrum3` matches the nodes used in the
    paper's evaluation.
    """

    name: str
    sockets: tuple[Socket, ...]
    memory_gb: float = 128.0

    def __post_init__(self) -> None:
        if not self.sockets:
            raise ValueError("a node needs at least one socket")
        seen = CpuSet.empty()
        for socket in self.sockets:
            if not seen.isdisjoint(socket.cpus):
                raise ValueError("sockets must not share CPUs")
            seen = seen | socket.cpus

    # -- constructors ----------------------------------------------------

    @classmethod
    def marenostrum3(cls, name: str = "mn3-node") -> "NodeTopology":
        """The MareNostrum III node used in the paper: 2 sockets x 8 cores, 128 GB."""
        return cls.uniform(name=name, sockets=2, cores_per_socket=8, memory_gb=128.0)

    @classmethod
    def uniform(
        cls,
        name: str = "node",
        sockets: int = 2,
        cores_per_socket: int = 8,
        memory_gb: float = 128.0,
        socket_bandwidth_gbs: float = 40.0,
    ) -> "NodeTopology":
        """A node with ``sockets`` identical sockets of ``cores_per_socket`` CPUs."""
        if sockets <= 0 or cores_per_socket <= 0:
            raise ValueError("sockets and cores_per_socket must be positive")
        socks = tuple(
            Socket(
                index=i,
                cpus=CpuSet.from_range(i * cores_per_socket, (i + 1) * cores_per_socket),
                memory_bandwidth_gbs=socket_bandwidth_gbs,
            )
            for i in range(sockets)
        )
        return cls(name=name, sockets=socks, memory_gb=memory_gb)

    # -- queries ----------------------------------------------------------

    # ``ncpus`` and the full mask are read on every DROM write; the frozen
    # node computes them once (``cached_property`` writes ``__dict__``,
    # which equality, hashing and ``repr`` never read).

    @cached_property
    def ncpus(self) -> int:
        """Total number of logical CPUs in the node."""
        return self._full_mask.count()

    @property
    def nsockets(self) -> int:
        return len(self.sockets)

    @property
    def cores_per_socket(self) -> int:
        return self.sockets[0].cpus.count()

    @property
    def memory_bandwidth_gbs(self) -> float:
        """Aggregate node memory bandwidth (sum over sockets)."""
        return sum(s.memory_bandwidth_gbs for s in self.sockets)

    def full_mask(self) -> CpuSet:
        """Mask covering every CPU of the node."""
        return self._full_mask

    @cached_property
    def _full_mask(self) -> CpuSet:
        mask = CpuSet.empty()
        for socket in self.sockets:
            mask = mask | socket.cpus
        return mask

    def socket_of(self, cpu: int) -> Socket:
        """The socket a CPU belongs to.

        Raises
        ------
        ValueError
            If the CPU is not part of this node.
        """
        for socket in self.sockets:
            if socket.cpus.contains(cpu):
                return socket
        raise ValueError(f"CPU {cpu} is not part of node {self.name!r}")

    def socket_mask(self, index: int) -> CpuSet:
        """Mask of all CPUs of socket ``index``."""
        return self.sockets[index].cpus

    def sockets_spanned(self, mask: CpuSet) -> int:
        """How many sockets a mask touches (data-locality indicator)."""
        return sum(1 for s in self.sockets if not s.cpus.isdisjoint(mask))

    def validate_mask(self, mask: CpuSet) -> None:
        """Raise ``ValueError`` if ``mask`` contains CPUs outside the node."""
        if not mask.issubset(self._full_mask):
            bad = mask - self._full_mask
            raise ValueError(
                f"mask {mask.to_list_string()!r} contains CPUs outside node "
                f"{self.name!r}: {bad.to_list_string()!r}"
            )


@dataclass(frozen=True)
class ClusterTopology:
    """A set of named compute nodes managed together (the SLURM partition)."""

    nodes: tuple[NodeTopology, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(names) != len(set(names)):
            raise ValueError("node names must be unique")

    @classmethod
    def marenostrum3(cls, nnodes: int = 2) -> "ClusterTopology":
        """The 2-node MN3 partition used for all the paper's experiments."""
        if nnodes <= 0:
            raise ValueError("nnodes must be positive")
        return cls(
            nodes=tuple(NodeTopology.marenostrum3(name=f"mn3-{i}") for i in range(nnodes))
        )

    @classmethod
    def uniform(
        cls,
        nnodes: int,
        sockets: int = 2,
        cores_per_socket: int = 8,
        memory_gb: float = 128.0,
        socket_bandwidth_gbs: float = 40.0,
        name_prefix: str = "node",
    ) -> "ClusterTopology":
        """A partition of ``nnodes`` identical nodes (campaign sweeps beyond MN3)."""
        if nnodes <= 0:
            raise ValueError("nnodes must be positive")
        return cls(
            nodes=tuple(
                NodeTopology.uniform(
                    name=f"{name_prefix}-{i}",
                    sockets=sockets,
                    cores_per_socket=cores_per_socket,
                    memory_gb=memory_gb,
                    socket_bandwidth_gbs=socket_bandwidth_gbs,
                )
                for i in range(nnodes)
            )
        )

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    @property
    def ncpus(self) -> int:
        return sum(node.ncpus for node in self.nodes)

    def node(self, name: str) -> NodeTopology:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    def node_names(self) -> tuple[str, ...]:
        return tuple(node.name for node in self.nodes)
