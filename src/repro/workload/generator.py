"""Synthetic workload generation — scenario sweeps beyond the paper's fixtures.

The paper evaluates DROM with a handful of hand-written two-job workloads on
two MN3 nodes.  The campaign subsystem needs arbitrarily many parameterised
workloads: seeded-random or Poisson arrival processes, configurable mixes of
the four evaluated applications (NEST, CoreNeuron, Pils, STREAM) in their
Table-1 configurations, priority levels, and node requests sized for any
:class:`~repro.cpuset.topology.ClusterTopology`.

Determinism is the contract: :func:`generate_workload` is a pure function of
``(spec, seed)`` — the same pair always produces the same job list, so a
campaign can be re-expanded and re-executed (serially or across a process
pool) with identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.apps import coreneuron as _coreneuron
from repro.apps import nest as _nest
from repro.apps import stream as _stream
from repro.runtime.process import ThreadModel
from repro.workload import configs
from repro.workload.workloads import ResourceRequest, Workload, WorkloadJob

#: Arrival process names accepted by :class:`WorkloadSpec`.
POISSON = "poisson"
UNIFORM = "uniform"
#: Bursty arrivals: jobs arrive in back-to-back groups of ``burst_size``;
#: the gaps *between* bursts are exponential with mean ``mean_interarrival``.
BURSTY = "bursty"

#: Default jobs-per-burst; non-bursty specs are normalised to it (the field
#: is inert there, and equal-computing specs must hash to the same cell).
DEFAULT_BURST_SIZE = 4

#: Nominal (unscaled) total work of each application factory, per config.
_BASE_WORK: dict[str, dict[str, float]] = {
    "NEST": {label: _nest.DEFAULT_TOTAL_WORK for label in configs.NEST_CONFIGS},
    "CoreNeuron": {
        label: _coreneuron.DEFAULT_TOTAL_WORK for label in configs.CORENEURON_CONFIGS
    },
    "Pils": dict(configs.PILS_WORK),
    "STREAM": {label: _stream.DEFAULT_TOTAL_WORK for label in configs.STREAM_CONFIGS},
}

_FACTORIES = {
    "NEST": configs.nest,
    "CoreNeuron": configs.coreneuron,
    "Pils": configs.pils,
    "STREAM": configs.stream,
}


@dataclass(frozen=True)
class AppMixEntry:
    """One application kind that a synthetic workload may draw."""

    app: str
    config: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.app not in _FACTORIES:
            raise ValueError(
                f"unknown application {self.app!r}; choose from {sorted(_FACTORIES)}"
            )
        if self.config not in _BASE_WORK[self.app]:
            raise ValueError(
                f"{self.app} has no configuration {self.config!r}"
            )
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError("weight must be finite and non-negative")

    @property
    def thread_model(self) -> ThreadModel:
        """Pils runs MPI+OmpSs, everything else MPI+OpenMP (Section 6)."""
        return ThreadModel.OMPSS if self.app == "Pils" else ThreadModel.OPENMP


#: Default mix: one simulator-style and one analytics-style job of each kind.
DEFAULT_APP_MIX: tuple[AppMixEntry, ...] = (
    AppMixEntry("NEST", "Conf. 1"),
    AppMixEntry("CoreNeuron", "Conf. 2"),
    AppMixEntry("Pils", "Conf. 2"),
    AppMixEntry("STREAM", "Conf. 1"),
)


@dataclass(frozen=True)
class SizeMixEntry:
    """One candidate job size (node count) of a heterogeneous workload.

    ``min_nodes``/``max_nodes`` become the drawn jobs' malleability bounds
    (see :class:`~repro.workload.workloads.ResourceRequest`); left ``None``
    the drawn requests are rigid.
    """

    nodes: int
    weight: float = 1.0
    min_nodes: int | None = None
    max_nodes: int | None = None

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError("nodes must be positive")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError("weight must be finite and non-negative")
        if self.min_nodes is not None and not 1 <= self.min_nodes <= self.nodes:
            raise ValueError("min_nodes must be in [1, nodes]")
        if self.max_nodes is not None and self.max_nodes < self.nodes:
            raise ValueError("max_nodes must be >= nodes")


def heavy_tailed_size_mix(
    max_nodes: int, alpha: float = 1.6
) -> tuple[SizeMixEntry, ...]:
    """A power-law job-size family: power-of-two node counts up to
    ``max_nodes``, weighted ``nodes ** -alpha`` — most jobs are small, a few
    are wide, like real HPC traces."""
    if max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    sizes = []
    n = 1
    while n <= max_nodes:
        sizes.append(SizeMixEntry(nodes=n, weight=n**-alpha))
        n *= 2
    return tuple(sizes)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a synthetic workload family.

    A spec describes the *distribution*; pairing it with a seed in
    :func:`generate_workload` draws one concrete workload.  All fields are
    plain values, so specs travel across process boundaries unchanged (the
    campaign runner pickles them into its worker pool).

    Parameters
    ----------
    njobs:
        Number of jobs to draw.
    arrival:
        ``"poisson"`` draws exponential inter-arrival gaps with mean
        ``mean_interarrival``; ``"uniform"`` submits jobs at fixed
        ``mean_interarrival`` spacing; ``"bursty"`` submits back-to-back
        groups of ``burst_size`` jobs with exponential gaps between the
        groups.  The first job always arrives at t=0.
    mean_interarrival:
        Mean (Poisson/bursty) or exact (uniform) gap between submissions
        (bursty: between bursts), seconds.
    burst_size:
        Jobs per burst when ``arrival="bursty"``.  For the other arrival
        processes the field is inert and is normalised back to its default,
        so two specs that compute the same workloads compare equal and hash
        to the same content-addressed store cell.
    app_mix:
        Applications to draw from, weighted.
    priority_levels:
        Candidate priorities, drawn uniformly per job.
    nodes:
        Default number of nodes each job requests (must not exceed the
        cluster the workload eventually runs on).
    size_mix:
        Optional heterogeneous job-size family: candidate node counts with
        weights, drawn per job and emitted as explicit per-job
        :class:`~repro.workload.workloads.ResourceRequest`\\ s whose task
        counts scale with the drawn size (the app configuration's
        ranks-per-node density is preserved).  Empty = every job requests
        ``nodes`` nodes, the paper's uniform sizing.
    work_scale:
        Multiplier on each application's nominal total work.  Campaign tests
        and quick sweeps use small scales to keep thousands of runs cheap.
    iterations:
        Optional override of the models' main-loop iteration count
        (malleability points per rank).
    name:
        Family name used in workload labels.
    """

    njobs: int = 4
    arrival: str = POISSON
    mean_interarrival: float = 120.0
    app_mix: tuple[AppMixEntry, ...] = DEFAULT_APP_MIX
    priority_levels: tuple[int, ...] = (0,)
    nodes: int = configs.EVALUATION_NODES
    work_scale: float = 1.0
    iterations: int | None = None
    name: str = "synthetic"
    size_mix: tuple[SizeMixEntry, ...] = ()
    burst_size: int = DEFAULT_BURST_SIZE

    def __post_init__(self) -> None:
        if self.burst_size <= 0:
            raise ValueError("burst_size must be positive")
        if self.arrival != BURSTY and self.burst_size != DEFAULT_BURST_SIZE:
            # Inert for non-bursty arrivals: normalise so equal-computing
            # specs are equal (and share one store cell).
            object.__setattr__(self, "burst_size", DEFAULT_BURST_SIZE)
        if self.njobs <= 0:
            raise ValueError("njobs must be positive")
        if self.arrival not in (POISSON, UNIFORM, BURSTY):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if not (math.isfinite(self.mean_interarrival) and self.mean_interarrival >= 0):
            raise ValueError("mean_interarrival must be finite and non-negative")
        if not self.app_mix:
            raise ValueError("app_mix must not be empty")
        if sum(e.weight for e in self.app_mix) <= 0:
            raise ValueError("app_mix needs at least one positive weight")
        if not self.priority_levels:
            raise ValueError("priority_levels must not be empty")
        if self.nodes <= 0:
            raise ValueError("nodes must be positive")
        if not (math.isfinite(self.work_scale) and self.work_scale > 0):
            raise ValueError("work_scale must be finite and positive")
        if self.iterations is not None and self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.size_mix and sum(e.weight for e in self.size_mix) <= 0:
            raise ValueError("size_mix needs at least one positive weight")


def build_app(entry: AppMixEntry, spec: WorkloadSpec) -> configs.ConfiguredApp:
    """Instantiate one app of the mix with the spec's work scaling applied."""
    kwargs: dict[str, object] = {
        "total_work": _BASE_WORK[entry.app][entry.config] * spec.work_scale
    }
    if spec.iterations is not None:
        kwargs["iterations"] = spec.iterations
    return _FACTORIES[entry.app](entry.config, **kwargs)


def draw_request(
    app: configs.ConfiguredApp, size: SizeMixEntry
) -> ResourceRequest:
    """The request one drawn job size implies for one app configuration.

    The app's rank density on the paper's two-node evaluation partition is
    preserved: a configuration running ``mpi_ranks`` ranks on
    ``EVALUATION_NODES`` nodes keeps the same ranks-per-node at any size, so
    wider jobs carry proportionally more ranks (and more total CPUs) —
    heavy-tailed sizes really do produce heavy-tailed CPU footprints.
    """
    ranks_per_node = max(1, app.config.mpi_ranks // configs.EVALUATION_NODES)
    return ResourceRequest(
        nodes=size.nodes,
        ntasks=size.nodes * ranks_per_node,
        cpus_per_task=app.config.threads_per_rank,
        min_nodes=size.min_nodes,
        max_nodes=size.max_nodes,
    )


def generate_workload(spec: WorkloadSpec, seed: int) -> Workload:
    """Draw one concrete workload from ``spec`` — deterministic in ``seed``."""
    rng = random.Random(seed)
    weights = [entry.weight for entry in spec.app_mix]
    size_weights = [entry.weight for entry in spec.size_mix]
    submit_time = 0.0
    jobs: list[WorkloadJob] = []
    for i in range(spec.njobs):
        entry = rng.choices(spec.app_mix, weights=weights, k=1)[0]
        app = build_app(entry, spec)
        priority = rng.choice(spec.priority_levels)
        resources = None
        if spec.size_mix:
            size = rng.choices(spec.size_mix, weights=size_weights, k=1)[0]
            resources = draw_request(app, size)
        jobs.append(
            WorkloadJob(
                app=app,
                submit_time=submit_time,
                priority=priority,
                thread_model=entry.thread_model,
                # Labels must be unique: the runner keys its bookkeeping on
                # them, and a mix can draw the same app/config twice.
                name=f"{app.label} #{i}",
                resources=resources,
            )
        )
        if spec.mean_interarrival <= 0:
            pass  # burst submission: every job arrives at t=0
        elif spec.arrival == POISSON:
            submit_time += rng.expovariate(1.0 / spec.mean_interarrival)
        elif spec.arrival == BURSTY:
            # Jobs within a burst share a submit time; the next burst starts
            # after an exponential gap.
            if (i + 1) % spec.burst_size == 0:
                submit_time += rng.expovariate(1.0 / spec.mean_interarrival)
        else:
            submit_time += spec.mean_interarrival
    return Workload(
        name=f"{spec.name}[seed={seed}]", jobs=tuple(jobs), nodes=spec.nodes
    )
