"""Mask-distribution policies for co-allocated jobs.

When a new job starts on a node that already hosts DROM-managed jobs, the
DROM-enabled ``task/affinity`` plugin (Section 5 of the paper) recomputes the
CPU masks of *both* the new and the running jobs.  The paper's algorithm:

* resources are **equally partitioned** among the jobs sharing the node
  (fairness / equipartition);
* within a job, CPUs are split evenly among its tasks so that hybrid
  MPI+OpenMP ranks stay balanced (imbalance degrades performance);
* jobs are kept on **separate sockets** whenever possible to preserve data
  locality.

This module implements that policy (:class:`SocketAwareEquipartition`) plus
the simpler variants used as ablation baselines: plain equipartition ignoring
sockets, proportional shares (by requested CPU count), and naive packing
(first-fit, the behaviour one would get from an unmodified affinity plugin).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology


@dataclass(frozen=True)
class JobShare:
    """Request of one job on one node.

    Parameters
    ----------
    job_id:
        SLURM-style numeric job id.
    ntasks:
        Number of tasks (MPI ranks) of the job placed on this node.
    requested_cpus:
        CPUs per node the job originally asked for (its ``--cpus-per-task``
        times ``ntasks``).  Used by the proportional policy and as an upper
        bound: a job is never handed more CPUs than it asked for unless it is
        expanding into CPUs released by a finished job.
    """

    job_id: int
    ntasks: int
    requested_cpus: int

    def __post_init__(self) -> None:
        if self.ntasks <= 0:
            raise ValueError("a job share needs at least one task")
        if self.requested_cpus < self.ntasks:
            raise ValueError("requested_cpus must be >= ntasks")


@dataclass(frozen=True)
class JobAllocation:
    """Result of a distribution: the node mask of a job and per-task masks."""

    job_id: int
    mask: CpuSet
    task_masks: tuple[CpuSet, ...]

    @property
    def ncpus(self) -> int:
        return self.mask.count()


class DistributionPolicy(ABC):
    """Strategy deciding how node CPUs are split among co-allocated jobs."""

    #: Human-readable policy name (used in benchmark output).
    name: str = "abstract"

    @abstractmethod
    def job_shares(self, ncpus: int, jobs: Sequence[JobShare]) -> Mapping[int, int]:
        """Return the number of CPUs each job gets out of ``ncpus``.

        The returned values sum to at most ``ncpus`` and every job gets at
        least one CPU per task.
        """

    def distribute(
        self,
        node: NodeTopology,
        jobs: Sequence[JobShare],
        free: CpuSet | None = None,
    ) -> dict[int, JobAllocation]:
        """Compute per-job and per-task masks for all jobs sharing ``node``.

        The jobs share ``free``, the whole node unless given (a release
        leaves out the CPUs that non-malleable survivors keep).  The job
        masks come from :meth:`layout`.  Within a job, tasks receive
        contiguous, near-equal chunks of the job mask.
        """
        if not jobs:
            return {}
        if free is None:
            free = node.full_mask()
        ncpus = free.count()
        self._validate(ncpus, jobs)
        masks = self.layout(node, free, jobs, self.job_shares(ncpus, jobs))
        return {
            job.job_id: JobAllocation(
                job_id=job.job_id,
                mask=masks[job.job_id],
                task_masks=split_among_tasks(masks[job.job_id], job.ntasks),
            )
            for job in jobs
        }

    def layout(
        self,
        node: NodeTopology,
        free: CpuSet,
        jobs: Sequence[JobShare],
        shares: Mapping[int, int],
    ) -> dict[int, CpuSet]:
        """Place each job's share of the ``free`` CPUs of the node.

        Jobs are laid out contiguously in the order given, so the first job
        occupies the lowest-numbered CPUs.
        """
        return _contiguous(free, jobs, shares)

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _validate(ncpus: int, jobs: Sequence[JobShare]) -> None:
        ids = [job.job_id for job in jobs]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate job ids in distribution request")
        min_needed = sum(job.ntasks for job in jobs)
        if min_needed > ncpus:
            raise ValueError(
                f"cannot fit {min_needed} tasks on {ncpus} CPUs; "
                "co-allocation would require oversubscription, which DROM avoids"
            )


class EquipartitionPolicy(DistributionPolicy):
    """Equal split of the node CPUs among jobs (the paper's fairness rule).

    Each job's share is bounded by its own request, and CPUs left over after
    capping are handed back to jobs that asked for more — so a small analytics
    job (e.g. STREAM's 2 CPUs) only takes what it needs and the running
    simulation keeps the rest, exactly the paper's "we remove 2 CPUs from the
    simulation" behaviour.
    """

    name = "equipartition"

    def job_shares(self, ncpus: int, jobs: Sequence[JobShare]) -> Mapping[int, int]:
        njobs = len(jobs)
        base = ncpus // njobs
        remainder = ncpus % njobs
        shares: dict[int, int] = {}
        for i, job in enumerate(jobs):
            share = base + (1 if i < remainder else 0)
            # A job never receives fewer CPUs than tasks, and never more than
            # it requested.
            share = max(share, job.ntasks)
            share = min(share, max(job.requested_cpus, job.ntasks))
            shares[job.job_id] = share
        _shrink_to_fit(shares, jobs, ncpus)
        _grow_to_fill(shares, jobs, ncpus)
        return shares


class SocketAwareEquipartition(EquipartitionPolicy):
    """Equipartition that rounds shares to whole sockets when it can.

    This is the policy described in Section 5: resources are equally
    partitioned, and the algorithm "distributes CPUs trying to keep
    applications in separate sockets in order to improve data locality".
    With two jobs on a 2-socket node each job gets exactly one socket.
    """

    name = "socket-equipartition"

    def layout(
        self,
        node: NodeTopology,
        free: CpuSet,
        jobs: Sequence[JobShare],
        shares: Mapping[int, int],
    ) -> dict[int, CpuSet]:
        # Assign whole free sockets greedily to jobs whose share is a
        # multiple of the socket size; leftovers fall back to the contiguous
        # layout on the rest of ``free``.
        cores = node.cores_per_socket
        remaining_sockets = [
            socket.cpus for socket in node.sockets if socket.cpus <= free
        ]
        assignments: dict[int, CpuSet] = {}
        leftover_jobs: list[JobShare] = []
        for job in jobs:
            share = shares[job.job_id]
            nsock = share // cores
            if nsock >= 1 and share % cores == 0 and len(remaining_sockets) >= nsock:
                mask = CpuSet.empty()
                for _ in range(nsock):
                    mask = mask | remaining_sockets.pop(0)
                assignments[job.job_id] = mask
            else:
                leftover_jobs.append(job)

        for mask in assignments.values():
            free = free - mask
        assignments.update(_contiguous(free, leftover_jobs, shares))
        return assignments


class ProportionalPolicy(DistributionPolicy):
    """Shares proportional to each job's requested CPU count."""

    name = "proportional"

    def job_shares(self, ncpus: int, jobs: Sequence[JobShare]) -> Mapping[int, int]:
        total_request = sum(job.requested_cpus for job in jobs)
        shares: dict[int, int] = {}
        for job in jobs:
            share = int(round(ncpus * job.requested_cpus / total_request))
            share = max(share, job.ntasks)
            share = min(share, job.requested_cpus)
            shares[job.job_id] = share
        _shrink_to_fit(shares, jobs, ncpus)
        return shares


class PackedPolicy(DistributionPolicy):
    """First-fit packing: every job keeps what it asked for until CPUs run out.

    This mimics an affinity plugin with no malleability: the running job keeps
    its full request and the new job is squeezed into whatever is left.  It is
    used as an ablation baseline — with two full-node jobs it degenerates into
    oversubscription, which :meth:`job_shares` reports by raising.
    """

    name = "packed"

    def job_shares(self, ncpus: int, jobs: Sequence[JobShare]) -> Mapping[int, int]:
        shares: dict[int, int] = {}
        available = ncpus
        for job in jobs:
            share = min(job.requested_cpus, available)
            if share < job.ntasks:
                raise ValueError(
                    f"packed policy cannot place job {job.job_id}: only "
                    f"{available} CPUs left for {job.ntasks} tasks"
                )
            shares[job.job_id] = share
            available -= share
        return shares


def split_among_tasks(mask: CpuSet, ntasks: int) -> tuple[CpuSet, ...]:
    """Split ``mask`` into ``ntasks`` contiguous, near-equal task masks.

    The first ``count % ntasks`` tasks get one extra CPU, mirroring how the
    SLURM block distribution hands out remainders.  Tasks may receive an empty
    mask only if the job mask has fewer CPUs than tasks, which the policies
    above never produce.
    """
    if ntasks <= 0:
        raise ValueError("ntasks must be positive")
    base, remainder = divmod(mask.count(), ntasks)
    bits = mask.bits
    masks: list[CpuSet] = []
    for i in range(ntasks):
        take, bits = _lowest(bits, base + (1 if i < remainder else 0))
        masks.append(CpuSet.from_bits(take))
    return tuple(masks)


def _lowest(bits: int, n: int) -> tuple[int, int]:
    """``(taken, rest)``: the ``n`` lowest set bits of ``bits`` (all of
    them if it has fewer) and the bits left over."""
    taken = 0
    for _ in range(n):
        if not bits:
            break
        low = bits & -bits
        taken |= low
        bits ^= low
    return taken, bits


def _contiguous(
    free: CpuSet, jobs: Sequence[JobShare], shares: Mapping[int, int]
) -> dict[int, CpuSet]:
    """Lay ``jobs`` out on ``free`` in order, each on its share of CPUs."""
    bits = free.bits
    masks: dict[int, CpuSet] = {}
    for job in jobs:
        take, bits = _lowest(bits, shares[job.job_id])
        masks[job.job_id] = CpuSet.from_bits(take)
    return masks


def _shrink_to_fit(
    shares: dict[int, int], jobs: Sequence[JobShare], ncpus: int
) -> None:
    """Trim shares (largest first) until they fit in the node, in place."""
    total = sum(shares.values())
    min_share = {job.job_id: job.ntasks for job in jobs}
    while total > ncpus:
        # shrink the job with the largest share that is still above its floor
        candidates = [j for j in shares if shares[j] > min_share[j]]
        if not candidates:
            raise ValueError("cannot fit job shares within the node")
        victim = max(candidates, key=lambda j: shares[j])
        shares[victim] -= 1
        total -= 1


def _grow_to_fill(
    shares: dict[int, int], jobs: Sequence[JobShare], ncpus: int
) -> None:
    """Hand leftover CPUs back to jobs below their request, in place.

    Jobs are topped up one CPU at a time, preferring the job furthest below
    its request, so fairness is preserved while no CPU is left idle if someone
    asked for it.
    """
    max_share = {job.job_id: max(job.requested_cpus, job.ntasks) for job in jobs}
    total = sum(shares.values())
    while total < ncpus:
        candidates = [j for j in shares if shares[j] < max_share[j]]
        if not candidates:
            break
        beneficiary = max(candidates, key=lambda j: max_share[j] - shares[j])
        shares[beneficiary] += 1
        total += 1
