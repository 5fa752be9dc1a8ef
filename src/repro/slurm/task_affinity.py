"""The DROM-enabled ``task/affinity`` plugin.

Section 5 of the paper confines the whole SLURM modification to the
``task/affinity`` plugin, which is loaded by both slurmd and slurmstepd.  Its
job is to decide which CPUs of a node each task of each job runs on and to
apply that decision, through four entry points (numbers refer to Figure 2):

* ``launch_request`` (1)  — called in slurmd when a new job step is to be
  launched on the node.  It computes the CPU masks of the *new* job's tasks
  and, when other DROM jobs already run on the node, recomputes the masks of
  the *running* malleable tasks too (equipartition, socket-aware).
* ``pre_launch`` (2)      — called in slurmstepd just before the task is
  execed.  It applies the computed mask using ``DROM_PreInit`` (2.1), which
  also shrinks the running tasks' masks in the DLB shared memory.
* ``post_term`` (4)       — called when a task ends; invokes
  ``DROM_PostFinalize`` (4.1), optionally returning stolen CPUs.
* ``release_resources`` (5) — called when a whole job ends; redistributes the
  freed CPUs to the still-running tasks with ``DROM_GetPidList`` /
  ``DROM_GetProcessMask`` / ``DROM_SetProcessMask`` (5.1).

Launch and release share one redistribution (:meth:`_redistribute`) and one
write rule (:meth:`_write_masks`): the node's DLB shared memory holds every
running task's mask, so a task is rewritten only when its target differs
from the mask the shared memory assigns it.  The plugin keeps the launch
masks only, which the Serial placement reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.drom import DromAdmin, PreInitResult
from repro.core.errors import DlbError
from repro.core.flags import DromFlags
from repro.cpuset.distribution import (
    DistributionPolicy,
    JobAllocation,
    JobShare,
    SocketAwareEquipartition,
    split_among_tasks,
)
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology


@dataclass
class TaskPlacement:
    """Launch mask of one task of one job on one node."""

    job_id: int
    task_index: int
    mask: CpuSet
    pid: int | None = None


@dataclass
class LaunchPlan:
    """Outcome of ``launch_request``: placements for the new job's tasks."""

    new_tasks: list[TaskPlacement] = field(default_factory=list)


#: A target mask for a task: (pid or None before ``pre_launch``, mask).
MaskTarget = tuple[int | None, CpuSet]


@dataclass
class _LocalJob:
    """Per-node record of a job with tasks on this node."""

    job_id: int
    tasks: list[TaskPlacement]
    requested_cpus: int
    malleable: bool
    #: Target masks of the tasks already running when this step was
    #: requested; pushed at the step's first ``pre_launch``.
    pending: list[MaskTarget] = field(default_factory=list)

    @property
    def ntasks(self) -> int:
        return len(self.tasks)


class TaskAffinityPlugin:
    """DROM-enabled CPU-placement plugin for one node.

    Parameters
    ----------
    topology:
        The node this plugin instance manages.
    admin:
        An attached DROM administrator on the node's shared memory.
    policy:
        Mask-distribution policy; defaults to the paper's socket-aware
        equipartition.
    drom_enabled:
        With False the plugin behaves like stock SLURM: it only places tasks
        on CPUs not used by any running job and never touches running jobs
        (the Serial baseline).
    """

    def __init__(
        self,
        topology: NodeTopology,
        admin: DromAdmin,
        policy: DistributionPolicy | None = None,
        drom_enabled: bool = True,
    ) -> None:
        self.topology = topology
        self.admin = admin
        self.policy = policy or SocketAwareEquipartition()
        self.drom_enabled = drom_enabled
        self._jobs: dict[int, _LocalJob] = {}
        #: ``DROM_SetProcessMask`` calls made, each of which changed a pid.
        self.masks_written = 0

    # -- (1) launch_request -------------------------------------------------------

    def launch_request(
        self,
        job_id: int,
        ntasks: int,
        cpus_per_task: int,
        malleable: bool = True,
    ) -> LaunchPlan:
        """Compute masks for a new job step arriving on this node."""
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} already has tasks on node {self.topology.name}")
        requested = ntasks * cpus_per_task

        if not self.drom_enabled or not self._jobs:
            task_masks = self._plan_on_free_cpus(job_id, ntasks, requested)
            pending: list[MaskTarget] = []
        else:
            allocations, pending = self._redistribute(
                JobShare(job_id=job_id, ntasks=ntasks, requested_cpus=requested)
            )
            task_masks = allocations[job_id].task_masks
        plan = LaunchPlan(
            new_tasks=[
                TaskPlacement(job_id=job_id, task_index=i, mask=mask)
                for i, mask in enumerate(task_masks)
            ]
        )
        self._jobs[job_id] = _LocalJob(
            job_id=job_id,
            tasks=list(plan.new_tasks),
            requested_cpus=requested,
            malleable=malleable,
            pending=pending,
        )
        return plan

    def _plan_on_free_cpus(
        self, job_id: int, ntasks: int, requested: int
    ) -> tuple[CpuSet, ...]:
        """Stock behaviour: place the job on CPUs no launch mask uses."""
        free = self.topology.full_mask()
        for job in self._jobs.values():
            for task in job.tasks:
                free = free - task.mask
        grant = free.first(min(requested, free.count()))
        if grant.count() < ntasks:
            raise ValueError(
                f"node {self.topology.name} has only {free.count()} free CPUs; "
                f"cannot launch {ntasks} tasks of job {job_id} without oversubscription"
            )
        return split_among_tasks(grant, ntasks)

    def _redistribute(
        self, new: JobShare | None = None
    ) -> tuple[dict[int, JobAllocation], list[MaskTarget]]:
        """Split the node among its malleable jobs and list the running
        tasks' targets.

        A non-malleable task never polls, so it keeps running on its CPUs
        (the mask the shared memory assigns it, or its launch mask before
        ``pre_launch``): those CPUs are left out of the split, and only the
        malleable running jobs are rewritten, at launch (``new`` given) and
        at release alike.  At launch every job keeps its own request; at
        release the malleable survivors may grow to every CPU left — the
        paper's release path grows job 2 to "keep maximum node utilization".
        """
        free = self.topology.full_mask()
        jobs: dict[int, _LocalJob] = {}
        for jid, job in self._jobs.items():
            if job.malleable:
                jobs[jid] = job
                continue
            for task in job.tasks:
                mask = task.mask if task.pid is None else self.admin.get_process_mask(task.pid)[1]
                if mask is not None:
                    free = free - mask
        shares = [
            JobShare(
                job_id=jid,
                ntasks=job.ntasks,
                requested_cpus=job.requested_cpus if new is not None else free.count(),
            )
            for jid, job in jobs.items()
        ]
        if new is not None:
            shares.append(new)
        allocations = self.policy.distribute(self.topology, shares, free)
        targets = [
            (task.pid, mask)
            for jid, job in jobs.items()
            for task, mask in zip(job.tasks, allocations[jid].task_masks)
        ]
        return allocations, targets

    def _write_masks(self, targets: Iterable[MaskTarget]) -> None:
        """Push target masks to registered pids through ``DROM_SetProcessMask``.

        A pid is written only when its target differs from the mask the
        shared memory assigns it: the assigned masks stay pairwise disjoint,
        so writing a pid's own assigned mask would change nothing.  An error
        code raises.
        """
        registered = set(self.admin.get_pid_list())
        for pid, mask in targets:
            if pid not in registered or self.admin.get_process_mask(pid)[1] == mask:
                continue
            code = self.admin.set_process_mask(pid, mask, DromFlags.STEAL)
            if code.is_error():
                raise RuntimeError(
                    f"DROM_SetProcessMask({pid}) failed while re-partitioning "
                    f"node {self.topology.name}: {code.name}"
                )
            self.masks_written += 1

    # -- (2) pre_launch ------------------------------------------------------------

    def pre_launch(self, job_id: int, task_index: int, pid: int) -> PreInitResult:
        """Apply the computed mask to a starting task via ``DROM_PreInit``.

        Before the first task of the step is pre-initialised, the new masks
        computed for the *running* tasks are pushed through
        ``DROM_SetProcessMask`` (the "update the other running task's mask"
        part of Figure 2); those tasks pick the change up at their next
        malleability point (``DLB_PollDROM``).
        """
        job = self._jobs[job_id]
        if job.pending:
            self._write_masks(job.pending)
            job.pending = []
        placement = job.tasks[task_index]
        placement.pid = pid
        flags = DromFlags.STEAL if self.drom_enabled else DromFlags.NONE
        result = self.admin.pre_init(pid, placement.mask, flags)
        if result.code.is_error():
            raise RuntimeError(
                f"DROM_PreInit failed for job {job_id} task {task_index} "
                f"(pid {pid}): {result.code.name}"
            )
        return result

    # -- (4) post_term -----------------------------------------------------------------

    def post_term(self, job_id: int, task_index: int) -> DlbError:
        """Finalise one task via ``DROM_PostFinalize``."""
        job = self._jobs[job_id]
        placement = job.tasks[task_index]
        if placement.pid is None:
            return DlbError.DLB_NOUPDT
        code, _returned = self.admin.post_finalize(placement.pid, DromFlags.RETURN_STOLEN)
        return code

    # -- (5) release_resources -------------------------------------------------------------

    def release_resources(self, job_id: int) -> None:
        """Drop a finished job and hand its CPUs to still-running DROM jobs.

        The survivors' new masks go to the shared memory, where each task
        picks its own up at its next poll.  Expansion is only possible for
        malleable jobs still registered in the DLB shared memory; the paper's
        example is job 2 expanding into job 1's CPUs once job 1 completes.
        """
        if self._jobs.pop(job_id, None) is None or not self.drom_enabled or not self._jobs:
            return
        _allocations, targets = self._redistribute()
        self._write_masks(targets)
