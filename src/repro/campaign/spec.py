"""Declarative campaign specifications.

A campaign is a grid — scenario × workload × policy × cluster — expanded into
individually executable :class:`RunSpec` entries.  Everything here is a plain
frozen dataclass of primitive values: a run spec must cross process
boundaries (the campaign runner pickles it into a ``multiprocessing`` worker
pool) and must rebuild *exactly* the same simulation on the other side, which
is what makes fixed-seed campaigns byte-identical whether they execute
serially or across N workers.

Live objects (``Workload``, ``ClusterTopology``, ``DistributionPolicy``) are
therefore never stored; each reference knows how to ``build()`` its object in
whichever process executes the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

from repro.cpuset.distribution import (
    DistributionPolicy,
    EquipartitionPolicy,
    PackedPolicy,
    ProportionalPolicy,
    SocketAwareEquipartition,
)
from repro.cpuset.topology import ClusterTopology
from repro.slurm.policies import NODE_POLICY_FACTORIES
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.runner import DROM, SERIAL
from repro.workload.workloads import (
    Workload,
    high_priority_workload,
    in_situ_workload,
)

#: Policy registry: short names usable in specs and on the CLI.
POLICY_REGISTRY: dict[str, type[DistributionPolicy]] = {
    "socket": SocketAwareEquipartition,
    "equipartition": EquipartitionPolicy,
    "proportional": ProportionalPolicy,
    "packed": PackedPolicy,
}


def _check_submit(name: str, submit: float) -> None:
    if not (math.isfinite(submit) and submit >= 0):
        raise ValueError(f"{name} must be finite and non-negative")


def _check_interference(factor: float | None) -> None:
    if factor is not None and not (math.isfinite(factor) and factor > 0):
        raise ValueError("interference_factor must be None or finite and positive")


@dataclass(frozen=True)
class ClusterRef:
    """Reference to a cluster topology, buildable in any process.

    ``kind="mn3"`` builds ``nnodes`` MareNostrum III nodes (the paper's
    hardware); ``kind="uniform"`` builds ``nnodes`` × ``sockets`` ×
    ``cores_per_socket`` generic nodes.
    """

    nnodes: int = 2
    kind: str = "mn3"
    sockets: int = 2
    cores_per_socket: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ("mn3", "uniform"):
            raise ValueError(f"unknown cluster kind {self.kind!r}")
        if self.nnodes <= 0:
            raise ValueError("nnodes must be positive")
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("sockets and cores_per_socket must be at least 1")

    def build(self) -> ClusterTopology:
        if self.kind == "mn3":
            return ClusterTopology.marenostrum3(self.nnodes)
        return ClusterTopology.uniform(
            self.nnodes, sockets=self.sockets, cores_per_socket=self.cores_per_socket
        )

    @property
    def label(self) -> str:
        if self.kind == "mn3":
            return f"mn3x{self.nnodes}"
        return f"{self.kind}{self.nnodes}x{self.sockets}x{self.cores_per_socket}"


@dataclass(frozen=True)
class PolicyRef:
    """Reference to a mask-distribution policy by registry name."""

    name: str = "socket"

    def __post_init__(self) -> None:
        if self.name not in POLICY_REGISTRY:
            raise ValueError(
                f"unknown policy {self.name!r}; choose from {sorted(POLICY_REGISTRY)}"
            )

    def build(self) -> DistributionPolicy:
        return POLICY_REGISTRY[self.name]()


@dataclass(frozen=True)
class SyntheticWorkloadRef:
    """A workload drawn from the synthetic generator with a fixed seed."""

    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    seed: int = 0

    def build(self) -> Workload:
        return generate_workload(self.spec, self.seed)

    @property
    def label(self) -> str:
        return f"{self.spec.name}[seed={self.seed}]"


@dataclass(frozen=True)
class InSituWorkloadRef:
    """The paper's use-case-1 workload family (simulator + analytics).

    ``simulator_kwargs`` (a tuple of key/value pairs, to stay hashable and
    picklable) forwards to the simulator's model factory — the ablations use
    ``(("malleable", False),)`` and ``(("chunks_per_thread", 0),)``.

    ``analytics_nodes`` shrinks the analytics job's resource request below
    the partition width (heterogeneous use case 1); it is part of the run
    identity — the same workload with a 1-node analytics job is a different
    cell than with the full-width one.
    """

    simulator: str = "NEST"
    simulator_config: str = "Conf. 1"
    analytics: str = "Pils"
    analytics_config: str = "Conf. 2"
    analytics_submit: float = 120.0
    simulator_kwargs: tuple[tuple[str, object], ...] = ()
    analytics_nodes: int | None = None

    def __post_init__(self) -> None:
        _check_submit("analytics_submit", self.analytics_submit)

    def build(self) -> Workload:
        return in_situ_workload(
            self.simulator,
            self.simulator_config,
            self.analytics,
            self.analytics_config,
            analytics_submit=self.analytics_submit,
            simulator_model_kwargs=dict(self.simulator_kwargs) or None,
            analytics_nodes=self.analytics_nodes,
        )

    @property
    def label(self) -> str:
        suffix = (
            f" @{self.analytics_nodes}n" if self.analytics_nodes is not None else ""
        )
        return (
            f"{self.simulator} {self.simulator_config} + "
            f"{self.analytics} {self.analytics_config}{suffix}"
        )


@dataclass(frozen=True)
class HighPriorityWorkloadRef:
    """The paper's use-case-2 workload (NEST + high-priority CoreNeuron)."""

    second_submit: float = 120.0

    def __post_init__(self) -> None:
        _check_submit("second_submit", self.second_submit)

    def build(self) -> Workload:
        return high_priority_workload(second_submit=self.second_submit)

    @property
    def label(self) -> str:
        return f"UC2[submit={self.second_submit:g}]"


WorkloadRef = Union[SyntheticWorkloadRef, InSituWorkloadRef, HighPriorityWorkloadRef]

#: Node-selection policies selectable by name on a :class:`SchedulerRef` —
#: the key set of :data:`repro.slurm.policies.NODE_POLICY_FACTORIES`.
#: ``lowest-utilisation`` is wired to the live DROM statistics modules by the
#: scenario runner (it needs per-run measured data, so it cannot be built
#: here); the other two are stateless.
NODE_POLICY_NAMES = tuple(sorted(NODE_POLICY_FACTORIES))


@dataclass(frozen=True)
class SchedulerRef:
    """Controller options of one run: backfill × node-selection policy.

    Exposes :class:`~repro.slurm.slurmctld.Slurmctld`'s existing knobs as a
    campaign axis, so backfill × victim-selection sweeps are declarative like
    everything else.  ``node_policy=None`` keeps the stock configuration
    order.
    """

    backfill: bool = False
    node_policy: str | None = None

    def __post_init__(self) -> None:
        if self.node_policy is not None and self.node_policy not in NODE_POLICY_NAMES:
            raise ValueError(
                f"unknown node policy {self.node_policy!r}; "
                f"choose from {sorted(NODE_POLICY_NAMES)}"
            )

    @property
    def label(self) -> str:
        parts = []
        if self.backfill:
            parts.append("backfill")
        if self.node_policy is not None:
            parts.append(self.node_policy)
        return "+".join(parts) if parts else "fcfs"


@dataclass(frozen=True)
class RunSpec:
    """One executable cell of the campaign grid.

    Note there is deliberately no per-run random seed: the simulation itself
    is deterministic, and workload randomness is owned by the workload
    reference (a :class:`SyntheticWorkloadRef` carries its generator seed) so
    that the Serial and DROM runs of the same cell see the *same* workload.
    """

    index: int
    scenario: str
    workload: WorkloadRef
    cluster: ClusterRef = ClusterRef()
    policy: PolicyRef | None = None
    #: Optional co-run slow-down: while a job shares a node, its steps take
    #: ``interference_factor`` times longer (the ablations' oversubscription
    #: model).  ``None`` means no interference, like the paper's measurements.
    interference_factor: float | None = None
    #: Controller options (backfill, node-selection policy).
    scheduler: SchedulerRef = SchedulerRef()

    def __post_init__(self) -> None:
        if self.scenario not in (SERIAL, DROM):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        _check_interference(self.interference_factor)

    @property
    def run_id(self) -> str:
        policy = self.policy.name if self.policy is not None else "default"
        # Every field that changes what the run computes must appear here:
        # two ids may only collide when the runs are interchangeable.
        interference = (
            f"|x{self.interference_factor:g}"
            if self.interference_factor is not None
            else ""
        )
        return (
            f"{self.index:04d}|{self.scenario}|{self.workload.label}"
            f"|{self.cluster.label}|{policy}|{self.scheduler.label}{interference}"
        )

    @property
    def cell_id(self) -> str:
        """The run id minus its grid-index prefix — the identity of the
        *cell* (what the content-addressed store tiers persist), shared by
        every campaign that reaches the same simulation."""
        return self.run_id.split("|", 1)[1]


@dataclass(frozen=True)
class CampaignSpec:
    """The full sweep: every combination of the axes below becomes a run.

    Expansion order is deterministic — cluster, then policy, then workload,
    then scenario (innermost), so the Serial/DROM runs of the same cell are
    adjacent — and each run gets a stable index.
    """

    name: str
    workloads: tuple[WorkloadRef, ...]
    scenarios: tuple[str, ...] = (SERIAL, DROM)
    clusters: tuple[ClusterRef, ...] = (ClusterRef(),)
    policies: tuple[PolicyRef | None, ...] = (None,)
    schedulers: tuple[SchedulerRef, ...] = (SchedulerRef(),)
    interference_factor: float | None = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("a campaign needs at least one workload")
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        for scenario in self.scenarios:
            if scenario not in (SERIAL, DROM):
                raise ValueError(f"unknown scenario {scenario!r}")
        if not self.clusters:
            raise ValueError("a campaign needs at least one cluster")
        if not self.policies:
            raise ValueError("a campaign needs at least one policy entry")
        if not self.schedulers:
            raise ValueError("a campaign needs at least one scheduler entry")
        _check_interference(self.interference_factor)

    def expand(self) -> list[RunSpec]:
        """Expand the grid into its run list (stable order and indices)."""
        runs: list[RunSpec] = []
        index = 0
        for cluster in self.clusters:
            for scheduler in self.schedulers:
                for policy in self.policies:
                    for workload in self.workloads:
                        for scenario in self.scenarios:
                            runs.append(
                                RunSpec(
                                    index=index,
                                    scenario=scenario,
                                    workload=workload,
                                    cluster=cluster,
                                    policy=policy,
                                    interference_factor=self.interference_factor,
                                    scheduler=scheduler,
                                )
                            )
                            index += 1
        return runs

    @property
    def nruns(self) -> int:
        return (
            len(self.clusters)
            * len(self.schedulers)
            * len(self.policies)
            * len(self.workloads)
            * len(self.scenarios)
        )

    def shard(self, n: int) -> list["CampaignSpec"]:
        """Split the campaign into up to ``n`` balanced shard specs.

        The workload axis (normally the widest) is dealt round-robin, so the
        shards' run counts differ by at most one workload's worth of cells.
        Each shard is a self-contained campaign; the union of the shards'
        cells equals this spec's cells (grid *indices* differ, but the
        content-addressed store excludes indices from its keys, so running
        every shard into its own :class:`~repro.results.store.ResultStore`,
        merging the stores, and re-running the full spec warm is the
        cross-host execution path).

        With fewer workloads than ``n``, only the non-empty shards are
        returned.
        """
        if n <= 0:
            raise ValueError("shard count must be positive")
        groups = [self.workloads[i::n] for i in range(n)]
        return [
            replace(self, name=f"{self.name}[shard {i + 1}/{n}]", workloads=group)
            for i, group in enumerate(groups)
            if group
        ]
